package fft1dlarge

import (
	"testing"

	"repro/internal/cvec"
	"repro/internal/fft1d"
)

// The six-step transform runs as one fused three-stage graph. It must
// match the direct FFT across odd composite sizes, buffer sizes and worker
// splits; every compute sees identical block contents whatever the split,
// so the outputs of different splits agree exactly.
func TestFusionEquivalence(t *testing.T) {
	sizes := []int{105, 360, 1155, 4096} // 105 = 3·5·7, 1155 = 3·5·7·11
	splits := [][2]int{{1, 1}, {2, 2}, {1, 3}}
	for _, n := range sizes {
		for _, b := range []int{64, 512} {
			x := randVec(int64(n+b), n)
			want := make([]complex128, n)
			fft1d.NewPlan(n).Transform(want, x, fft1d.Forward)
			var first []complex128
			for _, w := range splits {
				p, err := NewPlan(n, Options{
					MinN: 16, BufferElems: b,
					DataWorkers: w[0], ComputeWorkers: w[1],
				})
				if err != nil {
					t.Fatal(err)
				}
				out := make([]complex128, n)
				if err := p.Transform(out, x, fft1d.Forward); err != nil {
					t.Fatal(err)
				}
				if d := cvec.MaxDiff(cvec.Vec(out), cvec.Vec(want)); d > tol*float64(n) {
					t.Errorf("n=%d b=%d p=%v: diff vs direct %g", n, b, w, d)
				}
				if first == nil {
					first = out
					continue
				}
				for i := range out {
					if out[i] != first[i] {
						t.Fatalf("n=%d b=%d: split %v differs from split %v at %d",
							n, b, w, splits[0], i)
					}
				}
			}
		}
	}
}

// The whole six-step transform is one pipeline: stats report 3 stages in
// sum(iters)+S+1 steps.
func TestFusionStatsSteps(t *testing.T) {
	p, err := NewPlan(1<<12, Options{MinN: 16, BufferElems: 256})
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(3, p.N())
	y := make([]complex128, p.N())
	if err := p.Transform(y, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	want := len(p.stages) + 1
	for i := range p.stages {
		want += p.stages[i].Iters
	}
	if st.Stages != 3 || st.Steps != want {
		t.Fatalf("stats %+v, want 3 stages in %d steps", st, want)
	}
}

// DescribeGraph documents the compiled plan (and is empty for the direct
// fallback).
func TestDescribeGraph(t *testing.T) {
	p, err := NewPlan(1<<12, Options{MinN: 16, BufferElems: 256})
	if err != nil {
		t.Fatal(err)
	}
	if d := p.DescribeGraph(); d == "" {
		t.Fatal("expected a graph description")
	}
	small, err := NewPlan(8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := small.DescribeGraph(); d != "" {
		t.Fatalf("direct fallback should have no graph, got %q", d)
	}
}
