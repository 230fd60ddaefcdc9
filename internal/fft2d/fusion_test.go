package fft2d

import (
	"testing"

	"repro/internal/cvec"
	"repro/internal/fft1d"
)

// The fused stage-graph schedule must match the reference across odd
// sizes, μ values and worker splits. Every compute sees identical block
// contents whatever the split, so the outputs of different splits agree
// exactly.
func TestFusionEquivalence(t *testing.T) {
	cases := []struct{ n, m, mu int }{
		{7, 9, 1},  // odd everywhere forces μ=1
		{5, 15, 3}, // odd with odd μ
		{9, 25, 5},
		{6, 20, 4},
		{16, 16, 4},
	}
	splits := [][2]int{{1, 1}, {2, 2}, {1, 3}}
	for _, c := range cases {
		ref, _ := NewPlan(c.n, c.m, Options{Strategy: Reference})
		x := randVec(int64(c.n*c.m+c.mu), c.n*c.m)
		want := make([]complex128, len(x))
		if err := ref.Transform(want, x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		var first []complex128
		for _, w := range splits {
			p, err := NewPlan(c.n, c.m, Options{
				Strategy: DoubleBuf, Mu: c.mu, BufferElems: 64,
				DataWorkers: w[0], ComputeWorkers: w[1],
			})
			if err != nil {
				t.Fatal(err)
			}
			out := make([]complex128, len(x))
			if err := p.Transform(out, x, fft1d.Forward); err != nil {
				t.Fatal(err)
			}
			if d := cvec.MaxDiff(cvec.Vec(out), cvec.Vec(want)); d > tol*float64(c.n*c.m) {
				t.Errorf("%dx%d μ=%d p=%v: diff vs reference %g", c.n, c.m, c.mu, w, d)
			}
			if first == nil {
				first = out
				continue
			}
			for i := range out {
				if out[i] != first[i] {
					t.Fatalf("%dx%d μ=%d: split %v differs from split %v at %d: %v vs %v",
						c.n, c.m, c.mu, w, splits[0], i, out[i], first[i])
				}
			}
		}
	}
}

// Stats attribute the whole transform as one schedule: 2 stages filled and
// drained once, sum(iters)+S+1 steps.
func TestFusionStatsSteps(t *testing.T) {
	p, err := NewPlan(16, 16, Options{Strategy: DoubleBuf, Mu: 4, BufferElems: 64})
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(7, 16*16)
	y := make([]complex128, len(x))
	if err := p.Transform(y, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	want := len(p.stages) + 1
	for i := range p.stages {
		want += p.stages[i].Iters
	}
	if st.Stages != 2 || st.Steps != want {
		t.Fatalf("stats %+v, want 2 stages in %d steps", st, want)
	}
}
