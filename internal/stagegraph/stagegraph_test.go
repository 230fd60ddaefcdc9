package stagegraph

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/kernels"
	"repro/internal/trace"
)

// chainGraph builds a simple multi-stage graph over iters blocks of
// units×unitLen elements per stage: every stage scales its data and passes
// it through an identity rotation into the next array. Stage s cuts the
// same block into units of unitLen>>s elements (min 1), so consecutive
// stages carve the shared boundary half differently among the data
// workers: the last store of stage s and the first load of stage s+1 run
// in the same step on overlapping but unequal per-worker ranges, and only
// the data workers' store-before-load barrier keeps that load from
// overwriting data a slower worker is still storing.
func chainGraph(srcData []complex128, mids [][]complex128, dst []complex128,
	iters, units, unitLen int, scale complex128) []Stage {
	arrays := append([][]complex128{srcData}, mids...)
	arrays = append(arrays, dst)
	blockElems := units * unitLen
	var stages []Stage
	for s := 0; s+1 < len(arrays); s++ {
		ul := unitLen >> s
		if ul < 1 {
			ul = 1
		}
		stages = append(stages, Stage{
			Name: "chain", Iters: iters, Units: blockElems / ul, UnitLen: ul,
			Src: Endpoint{C: arrays[s]}, Dst: Endpoint{C: arrays[s+1]},
			Compute: func(b *Buffers, _ *kernels.Arena, half, iter, lo, hi int) {
				half_ := b.C[half]
				for j := lo * ul; j < hi*ul; j++ {
					half_[j] *= scale
				}
			},
			Rot: Rotation{Blocks: 1, BlockLen: ul, Map: func(g, _ int) int { return g * ul }},
		})
	}
	return stages
}

// runChain runs a stagesN-stage chain of iters blocks per stage on pd data
// and pc compute workers, recording into tr, and reports any difference
// between the result and the exact expected output, or any mismatch in the
// executor's step and stage counts.
func runChain(stagesN, iters, pd, pc int, tr *trace.Recorder) error {
	const units, unitLen = 4, 8
	n := iters * units * unitLen
	src := make([]complex128, n)
	for i := range src {
		src[i] = complex(float64(i%13)+1, float64(i%7))
	}
	mids := make([][]complex128, stagesN-1)
	for i := range mids {
		mids[i] = make([]complex128, n)
	}
	dst := make([]complex128, n)
	stages := chainGraph(src, mids, dst, iters, units, unitLen, 2)
	b := NewBuffers(units*unitLen, false)
	st, err := Run(Config{DataWorkers: pd, ComputeWorkers: pc, Tracer: tr}, b, stages)
	if err != nil {
		return err
	}
	if want := Steps(stages); st.Steps != want {
		return fmt.Errorf("Steps=%d, want %d", st.Steps, want)
	}
	if want := iters*stagesN + stagesN + 1; st.Steps != want {
		return fmt.Errorf("Steps=%d, want sum(iters)+S+1 = %d", st.Steps, want)
	}
	if st.Stages != stagesN {
		return fmt.Errorf("Stages=%d, want %d", st.Stages, stagesN)
	}
	scale := complex128(1)
	for s := 0; s < stagesN; s++ {
		scale *= 2
	}
	for i := range dst {
		if want := src[i] * scale; dst[i] != want {
			return fmt.Errorf("elem %d: got %v want %v", i, dst[i], want)
		}
	}
	return nil
}

// checkChain runs a chain with a fresh recorder and verifies both its
// output and its recorded schedule.
func checkChain(stagesN, iters, pd, pc int) (*trace.Recorder, error) {
	tr := trace.New()
	if err := runChain(stagesN, iters, pd, pc, tr); err != nil {
		return tr, err
	}
	iterCounts := make([]int, stagesN)
	for i := range iterCounts {
		iterCounts[i] = iters
	}
	return tr, tr.CheckStageGraph(iterCounts)
}

func TestFusedScheduleCorrectAndChecked(t *testing.T) {
	for _, stagesN := range []int{1, 2, 3} {
		for _, iters := range []int{1, 2, 5} {
			if _, err := checkChain(stagesN, iters, 2, 2); err != nil {
				t.Fatalf("stages=%d iters=%d: %v", stagesN, iters, err)
			}
		}
	}
}

// Property: for any stage count, iteration count and worker mix, the
// executor moves and transforms every element exactly once and follows the
// recorded schedule exactly. With up to three data workers the stage
// boundaries also exercise the store-before-load ordering on the shared
// half (see chainGraph).
func TestQuickChainCompleteAndChecked(t *testing.T) {
	f := func(rawStages, rawIters, rawPd, rawPc uint8) bool {
		stagesN := int(rawStages)%3 + 1
		iters := int(rawIters)%12 + 1
		pd := int(rawPd)%3 + 1
		pc := int(rawPc)%3 + 1
		if _, err := checkChain(stagesN, iters, pd, pc); err != nil {
			t.Logf("stages=%d iters=%d p_d=%d p_c=%d: %v", stagesN, iters, pd, pc, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFusedDrainsOncePerTransform(t *testing.T) {
	for _, stagesN := range []int{1, 2, 3} {
		tr, err := checkChain(stagesN, 4, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if d := tr.DrainCount(); d != 1 {
			t.Fatalf("%d-stage graph drained %d times, want 1", stagesN, d)
		}
	}
}

// The acceptance property of fusion: the last store of stage k and the
// first load of stage k+1 execute in the same step, on the same buffer
// half (store-before-load ordered by the data barrier).
func TestFusedBoundaryOverlap(t *testing.T) {
	const stagesN, iters = 3, 5
	tr, err := checkChain(stagesN, iters, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s+1 < stagesN; s++ {
		var lastStoreStep, firstLoadStep = -1, -1
		var storeBuf, loadBuf int
		for _, e := range tr.Events() {
			if e.Op == trace.Store && e.Stage == s && e.Iter == iters-1 {
				lastStoreStep, storeBuf = e.Step, e.Buf
			}
			if e.Op == trace.Load && e.Stage == s+1 && e.Iter == 0 {
				firstLoadStep, loadBuf = e.Step, e.Buf
			}
		}
		if lastStoreStep < 0 || firstLoadStep < 0 {
			t.Fatalf("boundary %d: missing events", s)
		}
		if lastStoreStep != firstLoadStep {
			t.Fatalf("boundary %d: store(last) at step %d, load(first) at step %d — not overlapped",
				s, lastStoreStep, firstLoadStep)
		}
		if storeBuf != loadBuf {
			t.Fatalf("boundary %d: store from half %d but load into half %d", s, storeBuf, loadBuf)
		}
	}
}

// Software pipelining hides data movement under compute: in every
// steady-state step of a one-stage graph (the paper's Table II) the data
// worker's store and load run while the compute worker runs the previous
// block. The store and the compute sleep rather than spin, so the overlap
// is real even on a single core.
func TestOverlapHidesDataMovement(t *testing.T) {
	const iters, blockElems = 8, 16
	const d = 3 * time.Millisecond
	src := make([]complex128, iters*blockElems)
	for i := range src {
		src[i] = complex(float64(i), 1)
	}
	dst := make([]complex128, iters*blockElems)
	stages := []Stage{{
		Name: "sleep", Iters: iters, Units: 1, UnitLen: blockElems,
		Src: Endpoint{C: src},
		Dst: Endpoint{WriteC: func(off int, block []complex128) {
			time.Sleep(d)
			copy(dst[off:], block)
		}},
		Compute: func(*Buffers, *kernels.Arena, int, int, int, int) { time.Sleep(2 * d) },
		Rot:     Rotation{Blocks: 1, BlockLen: blockElems, Map: func(g, _ int) int { return g * blockElems }},
	}}
	tr := trace.New()
	if _, err := Run(Config{DataWorkers: 1, ComputeWorkers: 1, Tracer: tr}, NewBuffers(blockElems, false), stages); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckStageGraph([]int{iters}); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("elem %d: got %v want %v", i, dst[i], src[i])
		}
	}
	steady := 0
	for step, evs := range tr.ByStep() {
		var store, load, comp *trace.Event
		for i := range evs {
			switch evs[i].Op {
			case trace.Store:
				store = &evs[i]
			case trace.Load:
				load = &evs[i]
			case trace.Compute:
				comp = &evs[i]
			}
		}
		// Steps 2..iters store one block while computing the next.
		if store == nil || comp == nil {
			continue
		}
		steady++
		first, last := store.Start, store.End
		if load != nil && load.End.After(last) {
			last = load.End
		}
		if !first.Before(comp.End) || !comp.Start.Before(last) {
			t.Fatalf("step %d: data ops [%v, %v] do not overlap compute [%v, %v]",
				step, first, last, comp.Start, comp.End)
		}
	}
	if steady != iters-1 {
		t.Fatalf("%d steps with both a store and a compute, want %d", steady, iters-1)
	}
}

func TestValidationErrors(t *testing.T) {
	b := NewBuffers(8, false)
	good := Stage{
		Name: "ok", Iters: 1, Units: 1, UnitLen: 8,
		Src: Endpoint{C: make([]complex128, 8)}, Dst: Endpoint{C: make([]complex128, 8)},
		Compute: func(*Buffers, *kernels.Arena, int, int, int, int) {},
		Rot:     Rotation{Blocks: 1, BlockLen: 8, Map: func(g, j int) int { return 0 }},
	}
	cases := []func(s *Stage){
		func(s *Stage) { s.Iters = 0 },
		func(s *Stage) { s.Units = 0 },
		func(s *Stage) { s.Compute = nil },
		func(s *Stage) { s.Rot.Map = nil },
		func(s *Stage) { s.Rot.Blocks = 2 }, // 2×8 ≠ store unit 8
		func(s *Stage) { s.UnitLen = 16 },   // block exceeds buffer half
		func(s *Stage) { s.Src = Endpoint{} },
		func(s *Stage) { s.Dst.R = make([]float64, 16) }, // two representations
		func(s *Stage) { s.StoreFromStaging = true },     // no staging halves
	}
	for i, mut := range cases {
		s := good
		mut(&s)
		if _, err := Run(Config{DataWorkers: 1, ComputeWorkers: 1}, b, []Stage{s}); err == nil {
			t.Fatalf("case %d: invalid stage accepted", i)
		}
	}
	if _, err := Run(Config{DataWorkers: 1, ComputeWorkers: 1}, b, nil); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, err := Run(Config{DataWorkers: 0, ComputeWorkers: 1}, b, []Stage{good}); err == nil {
		t.Fatal("zero data workers accepted")
	}
}

func TestComputePanicPropagates(t *testing.T) {
	b := NewBuffers(8, false)
	s := Stage{
		Name: "boom", Iters: 2, Units: 1, UnitLen: 8,
		Src: Endpoint{C: make([]complex128, 16)}, Dst: Endpoint{C: make([]complex128, 16)},
		Compute: func(*Buffers, *kernels.Arena, int, int, int, int) { panic("kernel exploded") },
		Rot:     Rotation{Blocks: 1, BlockLen: 8, Map: func(g, j int) int { return g * 8 }},
	}
	_, err := Run(Config{DataWorkers: 2, ComputeWorkers: 2}, b, []Stage{s})
	if err == nil || !strings.Contains(err.Error(), "compute worker") {
		t.Fatalf("panic in compute not surfaced as a compute-worker error: %v", err)
	}
}

func TestStagingStore(t *testing.T) {
	// Compute transposes each unit into the staging half; the store reads
	// the staging half. Mirrors the 1D-large transpose stages.
	const iters, units, unitLen = 2, 2, 4
	n := iters * units * unitLen
	src := make([]complex128, n)
	for i := range src {
		src[i] = complex(float64(i), 0)
	}
	dst := make([]complex128, n)
	stages := []Stage{{
		Name: "tr", Iters: iters, Units: units, UnitLen: unitLen,
		Src: Endpoint{C: src}, Dst: Endpoint{C: dst},
		Compute: func(b *Buffers, _ *kernels.Arena, half, iter, lo, hi int) {
			// Transpose the units×unitLen tile into unitLen×units.
			for u := lo; u < hi; u++ {
				for j := 0; j < unitLen; j++ {
					b.T[half][j*units+u] = b.C[half][u*unitLen+j]
				}
			}
		},
		StoreUnits: unitLen, StoreLen: units, StoreFromStaging: true,
		Rot: Rotation{Blocks: 1, BlockLen: units, Map: func(g, _ int) int {
			// Store unit g = iter*unitLen + j: column j of the global
			// (iters·units)×unitLen matrix, rows iter*units.., so it
			// lands at j*(iters*units) + iter*units.
			j, it := g%unitLen, g/unitLen
			return j*(iters*units) + it*units
		}},
	}}
	b := NewBuffers(units*unitLen, true)
	if _, err := Run(Config{DataWorkers: 1, ComputeWorkers: 1}, b, stages); err != nil {
		t.Fatal(err)
	}
	// dst should be the transpose of the (iters·units)×unitLen matrix.
	rows, cols := iters*units, unitLen
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if dst[c*rows+r] != src[r*cols+c] {
				t.Fatalf("transpose wrong at (%d,%d): got %v want %v", r, c, dst[c*rows+r], src[r*cols+c])
			}
		}
	}
}

func TestDescribe(t *testing.T) {
	stages := []Stage{
		{Name: "rows", Iters: 8, Units: 4, UnitLen: 16,
			Rot: Rotation{Blocks: 4, BlockLen: 4}},
		{Name: "cols", Iters: 8, Units: 2, UnitLen: 32,
			Rot: Rotation{Blocks: 8, BlockLen: 4}},
	}
	out := Describe(stages)
	for _, want := range []string{"2 stages", "fused", "rows", "cols", "1 drain"} {
		if !contains(out, want) {
			t.Fatalf("Describe output missing %q:\n%s", want, out)
		}
	}
	if Steps(stages) != 8+8+2+1 {
		t.Fatalf("steps = %d", Steps(stages))
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
