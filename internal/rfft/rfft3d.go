package rfft

import (
	"fmt"
	"runtime"

	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/stagegraph"
)

// Plan3D computes real-input 3D DFTs on k×n×m row-major grids (m even ≥ 2),
// producing the natural half-spectrum k×n×(m/2+1): the x dimension stores
// only the non-redundant Hermitian coefficients, so the transform moves
// roughly half the bytes of a padded complex transform. Both directions run
// as compiled stage graphs on the plan's persistent executor:
//
//	forward:  x-rows (pack+DFT_l+untangle) → y-pencils → z-pencils + DC post-pass
//	inverse:  entangle → y⁻¹ (scaled 1/n) → z⁻¹ (scaled 1/k) → x⁻¹ (retangle+IDFT_l)
//
// (The inverse undoes the pencil stages in y-then-z order — the axis DFTs
// commute, and that order lets every stage load its input contiguously.)
type Plan3D struct {
	k, n, m, l, mc int
	eng            engine

	half  *fft1d.Plan // DFT_l along x rows
	planN *fft1d.Plan // DFT_n along y
	planK *fft1d.Plan // DFT_k along z
	w     []complex128

	work1  []complex128 // k·n·l scratch
	work2  []complex128 // k·n·l scratch
	planeA []complex128 // k·n packed-DC plane copy for the post-pass
}

// NewPlan3D builds a 3D real-input plan; k, n ≥ 1, m even ≥ 2.
func NewPlan3D(k, n, m int, opts Options) (*Plan3D, error) {
	if k < 1 || n < 1 {
		return nil, fmt.Errorf("rfft: invalid size %dx%dx%d", k, n, m)
	}
	opts = opts.withDefaults()
	if err := opts.validate("Plan3D", m); err != nil {
		return nil, err
	}
	l := m / 2
	p := &Plan3D{k: k, n: n, m: m, l: l, mc: l + 1,
		half:   fft1d.NewPlanRadix(l, opts.Radix),
		planN:  fft1d.NewPlanRadix(n, opts.Radix),
		planK:  fft1d.NewPlanRadix(k, opts.Radix),
		w:      halfTwiddles(l),
		work1:  make([]complex128, k*n*l),
		work2:  make([]complex128, k*n*l),
		planeA: make([]complex128, k*n),
	}
	effMu := largestDivisorAtMost(l, opts.Mu)
	lb := l / effMu
	B := opts.BufferElems
	rows1 := largestDivisorAtMost(k*n, maxInt(1, B/l))
	units2 := largestDivisorAtMost(lb*k, maxInt(1, B/(n*effMu)))
	units3 := largestDivisorAtMost(n*lb, maxInt(1, B/(k*effMu)))
	rowsE := largestDivisorAtMost(k*n, maxInt(1, B/p.mc))
	elems := maxInt(rows1*l, units2*n*effMu, units3*k*effMu, rowsE*p.mc)

	// Blocked transpose of x rows into (xb, z, y, μ) order, shared by the
	// forward row stage and the inverse entangle stage.
	rowRot := stagegraph.Rotation{Blocks: lb, BlockLen: effMu, JStride: k * n * effMu,
		Map: func(g, xb int) int {
			z, y := g/n, g%n
			return ((xb*k+z)*n + y) * effMu
		}}

	fwd := []stagegraph.Stage{
		{
			Name: "x-rows", Iters: k * n / rows1, Units: rows1, UnitLen: l,
			Dst: stagegraph.Endpoint{C: p.work1},
			Compute: func(b *stagegraph.Buffers, a *kernels.Arena, half, _, lo, hi int) {
				if lo < hi {
					x := b.C[half][lo*l : hi*l]
					p.half.BatchArena(x, hi-lo, kernels.Forward, a)
					kernels.UntanglePackRows(x, hi-lo, l, p.w)
				}
			},
			Rot: rowRot,
		},
		{
			Name: "y-pencils", Iters: lb * k / units2, Units: units2, UnitLen: n * effMu,
			Src: stagegraph.Endpoint{C: p.work1},
			Dst: stagegraph.Endpoint{C: p.work2},
			Compute: func(b *stagegraph.Buffers, a *kernels.Arena, half, _, lo, hi int) {
				if lo < hi {
					p.planN.BatchLanesArena(b.C[half][lo*n*effMu:hi*n*effMu], hi-lo, effMu, kernels.Forward, a)
				}
			},
			// (xb,z,y,μ) → (y,xb,z,μ).
			Rot: stagegraph.Rotation{Blocks: n, BlockLen: effMu, JStride: lb * k * effMu,
				Map: func(g, y int) int {
					xb, z := g/k, g%k
					return ((y*lb+xb)*k + z) * effMu
				}},
		},
		{
			Name: "z-pencils", Iters: n * lb / units3, Units: units3, UnitLen: k * effMu,
			Src: stagegraph.Endpoint{C: p.work2},
			Compute: func(b *stagegraph.Buffers, a *kernels.Arena, half, _, lo, hi int) {
				if lo < hi {
					p.planK.BatchLanesArena(b.C[half][lo*k*effMu:hi*k*effMu], hi-lo, effMu, kernels.Forward, a)
				}
			},
			// (y,xb,z,μ) → natural half-spectrum rows of stride mc, leaving
			// the Nyquist hole at (z·n+y)·mc + l.
			Rot: stagegraph.Rotation{Blocks: k, BlockLen: effMu, JStride: n * p.mc,
				Map: func(g, z int) int {
					y, xb := g/lb, g%lb
					return (z*n+y)*p.mc + xb*effMu
				}},
		},
	}

	inv := []stagegraph.Stage{
		{
			Name: "entangle", Iters: k * n / rowsE, Units: rowsE, UnitLen: p.mc,
			StoreUnits: rowsE, StoreLen: l, StoreFromStaging: true,
			Dst: stagegraph.Endpoint{C: p.work1},
			Compute: func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
				if lo < hi {
					// The four (in even×even grids) self-conjugate (z,y)
					// rows have their X[0]/X[l] bins forced real.
					kernels.EntangleRows(b.T[half][lo*l:hi*l], b.C[half][lo*p.mc:hi*p.mc],
						hi-lo, l, iter*rowsE+lo,
						func(g int) bool {
							z, y := g/n, g%n
							return (z == 0 || 2*z == k) && (y == 0 || 2*y == n)
						})
				}
			},
			Rot: rowRot,
		},
		{
			Name: "iy-pencils", Iters: lb * k / units2, Units: units2, UnitLen: n * effMu,
			Src: stagegraph.Endpoint{C: p.work1},
			Dst: stagegraph.Endpoint{C: p.work2},
			Compute: func(b *stagegraph.Buffers, a *kernels.Arena, half, _, lo, hi int) {
				if lo < hi {
					x := b.C[half][lo*n*effMu : hi*n*effMu]
					p.planN.BatchLanesArena(x, hi-lo, effMu, kernels.Inverse, a)
					fft1d.Scale(x, 1/float64(n))
				}
			},
			Rot: stagegraph.Rotation{Blocks: n, BlockLen: effMu, JStride: lb * k * effMu,
				Map: func(g, y int) int {
					xb, z := g/k, g%k
					return ((y*lb+xb)*k + z) * effMu
				}},
		},
		{
			Name: "iz-pencils", Iters: n * lb / units3, Units: units3, UnitLen: k * effMu,
			Src: stagegraph.Endpoint{C: p.work2},
			Dst: stagegraph.Endpoint{C: p.work1},
			Compute: func(b *stagegraph.Buffers, a *kernels.Arena, half, _, lo, hi int) {
				if lo < hi {
					x := b.C[half][lo*k*effMu : hi*k*effMu]
					p.planK.BatchLanesArena(x, hi-lo, effMu, kernels.Inverse, a)
					fft1d.Scale(x, 1/float64(k))
				}
			},
			// (y,xb,z,μ) → natural packed rows (z,y,xb,μ).
			Rot: stagegraph.Rotation{Blocks: k, BlockLen: effMu, JStride: n * lb * effMu,
				Map: func(g, z int) int {
					y, xb := g/lb, g%lb
					return ((z*n+y)*lb + xb) * effMu
				}},
		},
		{
			Name: "ix-rows", Iters: k * n / rows1, Units: rows1, UnitLen: l,
			Src: stagegraph.Endpoint{C: p.work1},
			Compute: func(b *stagegraph.Buffers, a *kernels.Arena, half, _, lo, hi int) {
				if lo < hi {
					x := b.C[half][lo*l : hi*l]
					kernels.RetangleRows(x, hi-lo, l, p.w, 1/float64(l))
					p.half.BatchArena(x, hi-lo, kernels.Inverse, a)
				}
			},
			Rot: stagegraph.Rotation{Blocks: lb, BlockLen: effMu, JStride: effMu,
				Map: func(g, xb int) int { return g*l + xb*effMu }},
		},
	}

	if err := p.eng.init(fmt.Sprintf("rfft3d/%dx%dx%d", k, n, m), opts, elems, fwd, inv); err != nil {
		return nil, err
	}
	runtime.SetFinalizer(p, (*Plan3D).Close)
	return p, nil
}

// Dims returns (k, n, m).
func (p *Plan3D) Dims() (int, int, int) { return p.k, p.n, p.m }

// SpectrumLen returns k·n·(m/2+1).
func (p *Plan3D) SpectrumLen() int { return p.k * p.n * p.mc }

// RealLen returns k·n·m.
func (p *Plan3D) RealLen() int { return p.k * p.n * p.m }

// Close releases the plan's persistent workers. Idempotent.
func (p *Plan3D) Close() {
	p.eng.close()
	runtime.SetFinalizer(p, nil)
}

// Stats returns the most recent run's whole-transform executor stats.
func (p *Plan3D) Stats() stagegraph.Stats { return p.eng.stats() }

// SetRoofline sets the STREAM-peak normalization on both collectors.
func (p *Plan3D) SetRoofline(gbs float64) { p.eng.setRoofline(gbs) }

// ObsForward returns the forward-direction telemetry collector.
func (p *Plan3D) ObsForward() *obs.Collector { return p.eng.obsF }

// ObsInverse returns the inverse-direction telemetry collector.
func (p *Plan3D) ObsInverse() *obs.Collector { return p.eng.obsI }

// Observability returns the merged forward+inverse telemetry snapshot.
func (p *Plan3D) Observability() obs.Snapshot {
	return mergeSnapshots(p.eng.obsF.Snapshot(), p.eng.obsI.Snapshot())
}

// DescribeGraph renders the compiled forward and inverse stage graphs.
func (p *Plan3D) DescribeGraph() string {
	return stagegraph.Describe(p.eng.fwd) + stagegraph.Describe(p.eng.inv)
}

// Forward computes the unnormalized half spectrum. dst must have length
// SpectrumLen(), src RealLen().
func (p *Plan3D) Forward(dst []complex128, src []float64) error {
	if len(dst) != p.SpectrumLen() || len(src) != p.RealLen() {
		return fmt.Errorf("rfft: Forward lengths dst=%d src=%d, want %d/%d",
			len(dst), len(src), p.SpectrumLen(), p.RealLen())
	}
	e := &p.eng
	e.lock.Lock()
	defer e.lock.Unlock()
	if e.closed {
		return fmt.Errorf("rfft: plan closed")
	}
	e.fwd[0].Src.R = src
	e.fwd[2].Dst.C = dst
	err := e.run(e.fwd, e.fwdSched, e.obsF)
	e.fwd[0].Src.R = nil
	e.fwd[2].Dst.C = nil
	if err != nil {
		return err
	}
	p.disentangleDC(dst)
	return nil
}

// disentangleDC splits the packed DC plane A[z][y] = C₀[z][y] + i·C_l[z][y]
// into the DC (kx = 0) and Nyquist (kx = m/2) planes via the Hermitian
// symmetry of both in (z, y); the plane is copied first because each orbit
// needs its mirror's original value.
func (p *Plan3D) disentangleDC(dst []complex128) {
	k, n, l, mc := p.k, p.n, p.l, p.mc
	for r := 0; r < k*n; r++ {
		p.planeA[r] = dst[r*mc]
	}
	for z := 0; z < k; z++ {
		for y := 0; y < n; y++ {
			a := p.planeA[z*n+y]
			am := p.planeA[((k-z)%k)*n+(n-y)%n]
			d := a - conjc(am)
			dst[(z*n+y)*mc] = (a + conjc(am)) / 2
			dst[(z*n+y)*mc+l] = complex(imag(d)/2, -real(d)/2) // d/(2i)
		}
	}
}

// Inverse computes the fully normalized real inverse (Inverse ∘ Forward is
// the identity). src is read-only — it is no longer consumed as scratch —
// and the self-conjugate bins have their imaginary parts forced to zero on
// the way in.
func (p *Plan3D) Inverse(dst []float64, src []complex128) error {
	if len(dst) != p.RealLen() || len(src) != p.SpectrumLen() {
		return fmt.Errorf("rfft: Inverse lengths dst=%d src=%d, want %d/%d",
			len(dst), len(src), p.RealLen(), p.SpectrumLen())
	}
	e := &p.eng
	e.lock.Lock()
	defer e.lock.Unlock()
	if e.closed {
		return fmt.Errorf("rfft: plan closed")
	}
	e.inv[0].Src.C = src
	e.inv[3].Dst.R = dst
	err := e.run(e.inv, e.invSched, e.obsI)
	e.inv[0].Src.C = nil
	e.inv[3].Dst.R = nil
	return err
}
