package rfft

import (
	"fmt"
	"runtime"

	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/stagegraph"
)

// Plan2D computes real-input 2D DFTs on n×m row-major grids (m even ≥ 2),
// producing the natural half-spectrum n×(m/2+1). Both directions run as
// compiled two/three-stage graphs on the plan's persistent double-buffer
// executor:
//
//	forward:  rows (pack+DFT_l+untangle) → cols (DFT_n ⊗ I_μ)   + DC post-pass
//	inverse:  entangle → cols⁻¹ (scaled 1/n) → rows⁻¹ (retangle+IDFT_l)
//
// The row stages stream the user's []float64 grid through the fused
// pair-packed endpoints, so the whole pipeline moves half the bytes of the
// same-shape complex transform.
type Plan2D struct {
	n, m, l, mc int
	eng         engine

	half *fft1d.Plan // DFT_l along rows
	col  *fft1d.Plan // DFT_n along columns
	w    []complex128

	work1 []complex128 // after forward rows / inverse entangle (transposed blocks)
	work2 []complex128 // after inverse cols (natural packed rows)
}

// NewPlan2D builds a 2D real-input plan; n ≥ 1, m even ≥ 2.
func NewPlan2D(n, m int, opts Options) (*Plan2D, error) {
	if n < 1 {
		return nil, fmt.Errorf("rfft: invalid size %dx%d", n, m)
	}
	opts = opts.withDefaults()
	if err := opts.validate("Plan2D", m); err != nil {
		return nil, err
	}
	l := m / 2
	p := &Plan2D{n: n, m: m, l: l, mc: l + 1,
		half:  fft1d.NewPlanRadix(l, opts.Radix),
		col:   fft1d.NewPlanRadix(n, opts.Radix),
		w:     halfTwiddles(l),
		work1: make([]complex128, n*l),
		work2: make([]complex128, n*l),
	}
	effMu := largestDivisorAtMost(l, opts.Mu)
	lb := l / effMu
	B := opts.BufferElems
	// Uniform pipeline blocks: whole rows for the row stages, whole xb-rows
	// of the transposed block matrix for the column stages, whole natural
	// spectrum rows for the entangle stage.
	rows1 := largestDivisorAtMost(n, maxInt(1, B/l))
	xbs2 := largestDivisorAtMost(lb, maxInt(1, B/(n*effMu)))
	rowsE := largestDivisorAtMost(n, maxInt(1, B/p.mc))
	elems := maxInt(rows1*l, xbs2*n*effMu, rowsE*p.mc)

	rowRot := stagegraph.Rotation{Blocks: lb, BlockLen: effMu, JStride: n * effMu,
		Map: func(g, xb int) int { return (xb*n + g) * effMu }}

	fwd := []stagegraph.Stage{
		{
			Name: "rows", Iters: n / rows1, Units: rows1, UnitLen: l,
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
			Name: "cols", Iters: lb / xbs2, Units: xbs2, UnitLen: n * effMu,
			Src: stagegraph.Endpoint{C: p.work1},
			Compute: func(b *stagegraph.Buffers, a *kernels.Arena, half, _, lo, hi int) {
				if lo < hi {
					p.col.BatchLanesArena(b.C[half][lo*n*effMu:hi*n*effMu], hi-lo, effMu, kernels.Forward, a)
				}
			},
			// Column block xb of output row y lands at dst[y·mc + xb·μ],
			// leaving the Nyquist column hole at y·mc + l.
			Rot: stagegraph.Rotation{Blocks: n, BlockLen: effMu, JStride: p.mc,
				Map: func(g, y int) int { return y*p.mc + g*effMu }},
		},
	}

	inv := []stagegraph.Stage{
		{
			Name: "entangle", Iters: n / rowsE, Units: rowsE, UnitLen: p.mc,
			StoreUnits: rowsE, StoreLen: l, StoreFromStaging: true,
			Dst: stagegraph.Endpoint{C: p.work1},
			Compute: func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
				if lo < hi {
					// Rows ky = 0 and ky = n/2 of the half-spectrum are
					// self-conjugate: their X[0]/X[l] bins are forced real.
					kernels.EntangleRows(b.T[half][lo*l:hi*l], b.C[half][lo*p.mc:hi*p.mc],
						hi-lo, l, iter*rowsE+lo,
						func(g int) bool { return g == 0 || 2*g == n })
				}
			},
			Rot: rowRot,
		},
		{
			Name: "icols", Iters: lb / xbs2, Units: xbs2, UnitLen: n * effMu,
			Src: stagegraph.Endpoint{C: p.work1},
			Dst: stagegraph.Endpoint{C: p.work2},
			Compute: func(b *stagegraph.Buffers, a *kernels.Arena, half, _, lo, hi int) {
				if lo < hi {
					x := b.C[half][lo*n*effMu : hi*n*effMu]
					p.col.BatchLanesArena(x, hi-lo, effMu, kernels.Inverse, a)
					fft1d.Scale(x, 1/float64(n))
				}
			},
			// Back to natural packed row-major: block (xb, y) → y·l + xb·μ.
			Rot: stagegraph.Rotation{Blocks: n, BlockLen: effMu, JStride: lb * effMu,
				Map: func(g, y int) int { return (y*lb + g) * effMu }},
		},
		{
			Name: "irows", Iters: n / rows1, Units: rows1, UnitLen: l,
			Src: stagegraph.Endpoint{C: p.work2},
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

	if err := p.eng.init(fmt.Sprintf("rfft2d/%dx%d", n, m), opts, elems, fwd, inv); err != nil {
		return nil, err
	}
	runtime.SetFinalizer(p, (*Plan2D).Close)
	return p, nil
}

// Dims returns (n, m).
func (p *Plan2D) Dims() (int, int) { return p.n, p.m }

// SpectrumLen returns n·(m/2+1).
func (p *Plan2D) SpectrumLen() int { return p.n * p.mc }

// RealLen returns n·m.
func (p *Plan2D) RealLen() int { return p.n * p.m }

// Close releases the plan's persistent workers. Idempotent.
func (p *Plan2D) Close() {
	p.eng.close()
	runtime.SetFinalizer(p, nil)
}

// Stats returns the most recent run's whole-transform executor stats.
func (p *Plan2D) Stats() stagegraph.Stats { return p.eng.stats() }

// SetRoofline sets the STREAM-peak normalization on both collectors.
func (p *Plan2D) SetRoofline(gbs float64) { p.eng.setRoofline(gbs) }

// ObsForward returns the forward-direction telemetry collector.
func (p *Plan2D) ObsForward() *obs.Collector { return p.eng.obsF }

// ObsInverse returns the inverse-direction telemetry collector.
func (p *Plan2D) ObsInverse() *obs.Collector { return p.eng.obsI }

// Observability returns the merged forward+inverse telemetry snapshot.
func (p *Plan2D) Observability() obs.Snapshot {
	return mergeSnapshots(p.eng.obsF.Snapshot(), p.eng.obsI.Snapshot())
}

// DescribeGraph renders the compiled forward and inverse stage graphs.
func (p *Plan2D) DescribeGraph() string {
	return stagegraph.Describe(p.eng.fwd) + stagegraph.Describe(p.eng.inv)
}

// Forward computes the unnormalized half spectrum. dst must have length
// SpectrumLen(), src RealLen(); they are the only per-call endpoints, so
// the steady state is allocation-free.
func (p *Plan2D) Forward(dst []complex128, src []float64) error {
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
	e.fwd[1].Dst.C = dst
	err := e.run(e.fwd, e.fwdSched, e.obsF)
	e.fwd[0].Src.R = nil
	e.fwd[1].Dst.C = nil
	if err != nil {
		return err
	}
	p.disentangleDC(dst)
	return nil
}

// disentangleDC splits the packed lane-0 column A[ky] = C₀[ky] + i·C_l[ky]
// into the DC column C₀ and the Nyquist column C_l using the Hermitian
// symmetry of both (they are column DFTs of real columns): for each
// conjugate orbit {ky, n−ky}, C₀ = (A + conj(A′))/2 and
// C_l = (A − conj(A′))/(2i).
func (p *Plan2D) disentangleDC(dst []complex128) {
	n, l, mc := p.n, p.l, p.mc
	for ky := 0; 2*ky <= n; ky++ {
		kp := (n - ky) % n
		a, ap := dst[ky*mc], dst[kp*mc]
		d := a - conjc(ap)
		c0 := (a + conjc(ap)) / 2
		cl := complex(imag(d)/2, -real(d)/2) // d/(2i)
		dst[ky*mc] = c0
		dst[ky*mc+l] = cl
		dst[kp*mc] = conjc(c0)
		dst[kp*mc+l] = conjc(cl)
	}
}

// Inverse computes the fully normalized real inverse (Inverse ∘ Forward is
// the identity). src is read-only — unlike the old driver it is not used
// as scratch — and the self-conjugate bins (ky ∈ {0, n/2}, kx ∈ {0, m/2})
// have their imaginary parts forced to zero on the way in.
func (p *Plan2D) Inverse(dst []float64, src []complex128) error {
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
	e.inv[2].Dst.R = dst
	err := e.run(e.inv, e.invSched, e.obsI)
	e.inv[0].Src.C = nil
	e.inv[2].Dst.R = nil
	return err
}

func conjc(z complex128) complex128 { return complex(real(z), -imag(z)) }
