package shard

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fft1d"
)

// A /shard/begin spec arrives over the network: one whose worker plan
// cannot fit in this host's memory (4096³ on one worker), or whose slab
// product wraps around int (k = n = m = 2^22), must be refused with a 400
// before any allocation — not kill the worker — and the same worker must
// then still complete a valid job.
func TestBeginRejectsOversizedSpecs(t *testing.T) {
	w := NewWorker(WorkerOptions{})
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	defer w.Close()

	for i, dims := range [][3]int{{4096, 4096, 4096}, {1 << 22, 1 << 22, 1 << 22}} {
		spec := fmt.Sprintf(`{"job":"j%d","k":%d,"n":%d,"m":%d,"mu":4,"index":0,"workers":[%q]}`,
			i, dims[0], dims[1], dims[2], ts.URL)
		resp, err := http.Post(ts.URL+"/shard/begin", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%v: status %d (%s), want 400", dims, resp.StatusCode, body)
		}
		if w.ActiveJobs() != 0 {
			t.Fatalf("%v: rejected spec left %d active jobs", dims, w.ActiveJobs())
		}
	}

	coord, err := NewCoordinator(CoordinatorOptions{Nodes: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	const k, n, m = 16, 16, 16
	src := randCube(k*n*m, 16)
	dst := make([]complex128, len(src))
	if err := coord.Transform(context.Background(), dst, src, k, n, m, fft1d.Forward); err != nil {
		t.Fatalf("valid 16³ job after the rejections: %v", err)
	}
	checkBitwise(t, dst, singleNode(t, k, n, m, src, fft1d.Forward), "16³ after rejections")
}
