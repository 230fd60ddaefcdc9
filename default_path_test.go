package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/fft2d"
	"repro/internal/fft3d"
)

// The default public plans run the same interleaved stage graph as the
// single-node DoubleBuf plans internal/shard checks its sharded transforms
// against, so their forward outputs are bitwise identical to that
// reference — not merely close.
func TestDefaultPlansMatchShardReferenceBitwise(t *testing.T) {
	check := func(name string, got, want []complex128) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: element %d is %v, reference %v", name, i, got[i], want[i])
			}
		}
	}
	for _, n := range []int{32, 64} {
		x := cvec.Random(rand.New(rand.NewSource(int64(n))), n*n*n)
		p, err := NewFFT3D(n, n, n)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, len(x))
		if err := p.Forward(got, x); err != nil {
			t.Fatal(err)
		}
		p.Close()
		ref, err := fft3d.NewPlan(n, n, n, fft3d.Options{Strategy: fft3d.DoubleBuf})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, len(x))
		if err := ref.Transform(want, x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		ref.Close()
		check(fmt.Sprintf("NewFFT3D(%d³)", n), got, want)
	}

	const n = 256
	x := cvec.Random(rand.New(rand.NewSource(n)), n*n)
	p, err := NewFFT2D(n, n)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got := make([]complex128, len(x))
	if err := p.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	ref, err := fft2d.NewPlan(n, n, fft2d.Options{Strategy: fft2d.DoubleBuf})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := make([]complex128, len(x))
	if err := ref.Transform(want, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	check("NewFFT2D(256²)", got, want)
}
