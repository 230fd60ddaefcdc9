package stagegraph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernels"
)

// TestStoreFoldMatchesFullTransform runs a StoreRadix=4 stage whose compute
// hook performs every Stockham sweep of each pencil except the last — the
// trivial-twiddle radix-4 stage (m=1, s=n/4) — and lets the store leg fold
// that stage into the scatter. The destination must match the full FFT of
// every pencil, for both signs, several block granularities (nq = Blocks/4
// of 1, 2 and 4), and both the affine-run and per-block store paths.
func TestStoreFoldMatchesFullTransform(t *testing.T) {
	const n, units, iters = 64, 4, 3
	for _, sign := range []int{kernels.Forward, kernels.Inverse} {
		tw1 := kernels.NewStageTwiddles(64, 4, sign)
		tw2 := kernels.NewStageTwiddles(16, 4, sign)
		for _, blocks := range []int{4, 8, 16} {
			for _, affine := range []bool{true, false} {
				bl := n / blocks
				rng := rand.New(rand.NewSource(int64(17*blocks + sign)))
				src := make([]complex128, iters*units*n)
				for i := range src {
					src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				dst := make([]complex128, len(src))
				rot := Rotation{Blocks: blocks, BlockLen: bl,
					Map: func(g, j int) int { return g*n + j*bl }}
				if affine {
					rot.JStride = bl
				}
				sg := sign
				stages := []Stage{{
					Name: "fold", Iters: iters, Units: units, UnitLen: n,
					Src: Endpoint{C: src}, Dst: Endpoint{C: dst},
					Compute: func(b *Buffers, ar *kernels.Arena, half, iter, lo, hi int) {
						tmp := ar.Complex(n)
						for u := lo; u < hi; u++ {
							p := b.C[half][u*n : (u+1)*n]
							kernels.Radix4Step(tmp, p, 16, 1, sg, tw1)
							kernels.Radix4Step(p, tmp, 4, 4, sg, tw2)
						}
					},
					StoreRadix: 4, StoreSign: sg,
					Rot: rot,
				}}
				b := NewBuffers(units*n, false)
				if _, err := Run(Config{DataWorkers: 2, ComputeWorkers: 2}, b, stages); err != nil {
					t.Fatal(err)
				}
				for p := 0; p < iters*units; p++ {
					want := kernels.NaiveDFT(src[p*n:(p+1)*n], sign)
					got := dst[p*n : (p+1)*n]
					scale := 1.0
					for i := range want {
						if a := math.Hypot(real(want[i]), imag(want[i])); a > scale {
							scale = a
						}
					}
					for i := range want {
						if d := want[i] - got[i]; math.Hypot(real(d), imag(d)) > 1e-9*scale {
							t.Fatalf("sign=%d blocks=%d affine=%v pencil=%d elem=%d: got %v want %v",
								sign, blocks, affine, p, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestStoreFoldValidation: the executor must reject fold stages with shapes
// the store leg cannot fold.
func TestStoreFoldValidation(t *testing.T) {
	mkStage := func() Stage {
		return Stage{
			Name: "fold", Iters: 1, Units: 1, UnitLen: 8,
			Src: Endpoint{C: make([]complex128, 8)}, Dst: Endpoint{C: make([]complex128, 8)},
			Compute:    func(*Buffers, *kernels.Arena, int, int, int, int) {},
			StoreRadix: 4,
			Rot:        Rotation{Blocks: 4, BlockLen: 2, Map: func(g, j int) int { return g*8 + j*2 }},
		}
	}
	cases := []struct {
		name string
		mut  func(s *Stage)
		bufs *Buffers
	}{
		{"radix 8 unsupported", func(s *Stage) { s.StoreRadix = 8 }, NewBuffers(8, false)},
		{"blocks not multiple of 4", func(s *Stage) { s.Rot = Rotation{Blocks: 2, BlockLen: 4, Map: s.Rot.Map} }, NewBuffers(8, false)},
		{"staging store", func(s *Stage) { s.StoreFromStaging = true }, NewBuffers(8, true)},
	}
	for _, c := range cases {
		s := mkStage()
		c.mut(&s)
		if _, err := Run(Config{DataWorkers: 1, ComputeWorkers: 1}, c.bufs, []Stage{s}); err == nil {
			t.Errorf("%s: invalid fold stage accepted", c.name)
		}
	}
	// The base shape itself must be accepted.
	s := mkStage()
	if _, err := Run(Config{DataWorkers: 1, ComputeWorkers: 1}, NewBuffers(8, false), []Stage{s}); err != nil {
		t.Errorf("valid fold stage rejected: %v", err)
	}
}
