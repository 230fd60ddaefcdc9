package fft3d

import (
	"testing"

	"repro/internal/cvec"
	"repro/internal/fft1d"
)

// The fused stage-graph schedule must match the reference on the 3D
// transform — including the array-reuse flow (src→dst, dst→work, work→dst),
// where fusion is only legal because stage 3's first store lands strictly
// after stage 2's last load of dst. Exercised across odd sizes, μ values
// and worker splits; every compute sees identical block contents whatever
// the split, so the outputs of different splits agree exactly.
func TestFusionEquivalence(t *testing.T) {
	cases := []struct{ k, n, m, mu int }{
		{3, 5, 7, 1}, // odd everywhere forces μ=1
		{5, 3, 9, 3},
		{4, 6, 10, 2},
		{8, 8, 16, 4},
	}
	splits := [][2]int{{1, 1}, {2, 2}, {2, 3}}
	for _, c := range cases {
		ref, _ := NewPlan(c.k, c.n, c.m, Options{Strategy: Reference})
		x := randVec(int64(c.k*100+c.n*10+c.m), c.k*c.n*c.m)
		want := make([]complex128, len(x))
		if err := ref.Transform(want, x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		var first []complex128
		for _, w := range splits {
			p, err := NewPlan(c.k, c.n, c.m, Options{
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
			if d := cvec.MaxDiff(cvec.Vec(out), cvec.Vec(want)); d > tol*float64(len(x)) {
				t.Errorf("%dx%dx%d μ=%d p=%v: diff vs reference %g",
					c.k, c.n, c.m, c.mu, w, d)
			}
			if first == nil {
				first = out
				continue
			}
			for i := range out {
				if out[i] != first[i] {
					t.Fatalf("%dx%dx%d μ=%d: split %v differs from split %v at %d",
						c.k, c.n, c.m, c.mu, w, splits[0], i)
				}
			}
		}
	}
}

// The multi-socket transform fuses stages 1+2 per socket. It must match the
// reference, agree exactly across worker splits, and keep the same
// per-stage traffic split whatever the split (the byte counts depend on
// the rotations, not on who moves them).
func TestDistributedFusionEquivalence(t *testing.T) {
	const k, n, m, sk = 8, 8, 16, 2
	ref, _ := NewPlan(k, n, m, Options{Strategy: Reference})
	x := randVec(99, k*n*m)
	want := make([]complex128, len(x))
	if err := ref.Transform(want, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	var traffic [2][3]TrafficStat
	var outs [2][]complex128
	for i, workers := range []int{1, 2} {
		dp, err := NewDistPlan(k, n, m, sk, Options{
			BufferElems: 128, DataWorkers: workers, ComputeWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		src, _ := dp.Alloc()
		dst, _ := dp.Alloc()
		src.Scatter(x)
		if err := dp.Transform(dst, src, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		outs[i] = make([]complex128, len(x))
		dst.Gather(outs[i])
		if d := cvec.MaxDiff(cvec.Vec(outs[i]), cvec.Vec(want)); d > tol*float64(len(x)) {
			t.Errorf("dist p=%d/%d: diff vs reference %g", workers, workers, d)
		}
		traffic[i] = dp.StageTraffic
	}
	for i := range outs[0] {
		if outs[0][i] != outs[1][i] {
			t.Fatalf("1/1 and 2/2 distributed outputs differ at %d", i)
		}
	}
	if traffic[0] != traffic[1] {
		t.Fatalf("per-stage traffic depends on the worker split: 1/1 %+v 2/2 %+v",
			traffic[0], traffic[1])
	}
}

// Stats attribute the whole fused transform: 3 stages in one schedule of
// sum(iters)+S+1 steps.
func TestFusionStatsSteps(t *testing.T) {
	p, err := NewPlan(8, 8, 16, Options{Strategy: DoubleBuf, Mu: 4, BufferElems: 128})
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(5, p.Len())
	y := make([]complex128, len(x))
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
