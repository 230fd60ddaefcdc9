package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestSeedFixesLoad checks that one seed gives identical inputs and
// request order, and that another seed gives different ones.
func TestSeedFixesLoad(t *testing.T) {
	gen := func(seed uint64) []any {
		return []any{
			mixOrder(seed, 0, 256),
			mixOrder(seed, 1, 256),
			mixInput(seed, mixKey{N: 1021}),
			mixInput(seed, mixKey{N: 360, Real: true}),
			pool2D(seed, 2, 64),
			closedOrder(seed, 0, pool2DSize, 256),
			closedOrder(seed, 1, pool2DSize, 256),
		}
	}
	a, b, c := gen(7), gen(7), gen(8)
	names := []string{"1D order of connection 0", "1D order of connection 1", "complex input", "real input",
		"2D pool", "2D order of connection 0", "2D order of connection 1"}
	for i, name := range names {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("%s differs between two runs of seed 7", name)
		}
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("%s is the same for seeds 7 and 8", name)
		}
	}
	if reflect.DeepEqual(a[0], a[1]) || reflect.DeepEqual(a[5], a[6]) {
		t.Error("both connections send the same order")
	}
}

// TestMix checks the 1D mix: real requests only on even lengths, more
// distinct plan keys than the server's 32-plan cache, and about a quarter
// of them real.
func TestMix(t *testing.T) {
	order := mixOrder(1, 0, 20000)
	keys := map[mixKey]bool{}
	var real int
	for _, r := range order {
		keys[r.mixKey] = true
		if r.Real {
			real++
			if r.N%2 != 0 {
				t.Fatalf("real request of odd length %d", r.N)
			}
		}
	}
	if len(keys) <= 32 || len(keys) > len(mixKeys()) {
		t.Errorf("%d distinct plan keys of %d; the 32-plan cache must overflow", len(keys), len(mixKeys()))
	}
	if share := float64(real) / float64(len(order)); share < 0.1 || share > 0.3 {
		t.Errorf("real share %.2f", share)
	}
}

// TestFailuresCounted checks that a corrupted reply, an error status and
// an undecodable body each count as failed, not dropped, and that a
// correct reply passes — also after a corrupted one of the same request.
func TestFailuresCounted(t *testing.T) {
	x := mixInput(3, mixKey{N: 16})
	it := newItem(1, [3]int{16}, false, false, x, dft(x, -1))
	good, _ := json.Marshal(map[string][]float64{"data": interleave(it.Want)})
	bad := append([]complex128(nil), it.Want...)
	bad[5] += 1e-3
	corrupt, _ := json.Marshal(map[string][]float64{"data": interleave(bad)})

	replies := []func(http.ResponseWriter){
		func(w http.ResponseWriter) { w.Write(good) },
		func(w http.ResponseWriter) { w.Write(corrupt) },
		func(w http.ResponseWriter) { http.Error(w, "boom", http.StatusInternalServerError) },
		func(w http.ResponseWriter) { http.Error(w, "bad dims", http.StatusBadRequest) },
		func(w http.ResponseWriter) { w.Write(good[:len(good)/2]) },
		func(w http.ResponseWriter) { w.Write(good) },
	}
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		replies[int(n.Add(1)-1)%len(replies)](w)
	}))
	defer srv.Close()

	c := newClient(1)
	defer c.CloseIdleConnections()
	tl := &tally{}
	for i := range replies {
		send(nil, c, srv.URL, it, i+1, tl)
	}
	if tl.attempted != len(replies) || tl.failed != 4 || len(tl.lat) != 2 {
		t.Fatalf("attempted %d failed %d verified %d, want %d, 4, 2; errors %q",
			tl.attempted, tl.failed, len(tl.lat), len(replies), tl.errs)
	}

	res := newResult()
	res.count(tl)
	res.fail(fmt.Errorf("unclean shutdown"))
	if res.attempted != len(replies) || res.failed != 5 {
		t.Errorf("result counts %d/%d", res.failed, res.attempted)
	}
}

// TestReferences checks the direct-sum references against each other and
// against a transform known in closed form.
func TestReferences(t *testing.T) {
	imp := make([]complex128, 12)
	imp[1] = 1
	for k, v := range dft(imp, -1) {
		want := twiddles(12, -1)[k]
		if d := v - want; real(d)*real(d)+imag(d)*imag(d) > 1e-28 {
			t.Fatalf("DFT of a shifted impulse at bin %d: %v, want %v", k, v, want)
		}
	}
	r := newRNG(1, "test")
	x := randomComplex(r, 6*10)
	X := dft2(x, 6, 10, -1)
	for _, f := range [][]int{{0, 0}, {1, 3}, {5, 9}} {
		got := spotBin(x, []int{6, 10}, f)
		if err := checkClose([]complex128{got}, []complex128{X[binIndex([]int{6, 10}, f)]}); err != nil {
			t.Errorf("bin %v: %v", f, err)
		}
	}
	if err := checkClose(dft(dft(x, -1), 1), scaled(x, 60)); err != nil {
		t.Errorf("round trip: %v", err)
	}
	spots := spotBins(r, x, []int{6, 10}, 3)
	if err := checkSpots(X, spots, norm2(x)); err != nil {
		t.Error(err)
	}
	X[spots[1].Index] += 1
	if checkSpots(X, spots, norm2(x)) == nil {
		t.Error("a wrong bin passed the spot check")
	}
}

// TestChildCoverage checks that a gap between a span's children shows as
// uncovered time, and that overlapping children count once.
func TestChildCoverage(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	tr := &tracer{on: true}
	p := tr.record("layer.call", 0, 1, at(0), at(10))
	tr.record("phase.a", p, 1, at(0), at(3))
	tr.record("phase.b", p, 1, at(2), at(4))
	tr.record("phase.c", p, 1, at(6), at(9))
	tr.record("other", 0, 2, at(20), at(40))
	got := tr.childCoverage(func(n string) bool { return n == "layer.call" })
	if math.Abs(got-0.7) > 1e-12 {
		t.Errorf("coverage %v, want 0.7", got)
	}
}

// TestPairedOverhead checks that a traced half holding more of the slower
// direction does not read as tracing cost.
func TestPairedOverhead(t *testing.T) {
	untraced := [2]latencies{{100, 101}, {200}}
	traced := [2]latencies{{102}, {202, 202, 202}}
	d, ok := pairedOverhead(untraced, traced)
	if !ok || math.Abs(d-1.75) > 1e-12 {
		t.Errorf("overhead %v %v, want 1.75 true", d, ok)
	}
	if _, ok := pairedOverhead(untraced, [2]latencies{{102}, nil}); ok {
		t.Error("a half without inverses was accepted")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, p := tail(xs); p != 90 || v != quantile(xs, 0.9) {
		t.Errorf("tail of 100 samples = %g at p%g, want p90", v, p)
	}
	if v, p := tail(xs[:12]); p != 100 || v != 11 {
		t.Errorf("tail of 12 samples = %g at p%g, want the maximum", v, p)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics this command prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, the command prints %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the command's list:\n%v\n%v", spec.PerLayer, perLayer)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
}
