package kernels

// Split-format (block-interleaved) Stockham stages. These are the same
// butterflies as Radix2Step/Radix4Step but over separate real and imaginary
// float64 arrays, the layout the paper's compute stages use so that vector
// units consume whole cachelines of reals followed by whole cachelines of
// imaginaries (§IV-A, "Cache aware FFT"). No transform runs them: measured
// end to end, the interleaved codelets beat the split format on every
// shape, so these pure-Go bodies remain only as the split side of the
// format ablation (BenchmarkKernelSplit vs BenchmarkKernelInterleaved).

// SplitTwiddles holds split-format per-stage twiddles.
type SplitTwiddles struct {
	Radix        int
	W1Re, W1Im   []float64
	W2Re, W2Im   []float64
	W3Re, W3Im   []float64
	W4Re, W4Im   []float64
	W5Re, W5Im   []float64
	W6Re, W6Im   []float64
	W7Re, W7Im   []float64
	W8Re, W8Im   []float64
	W9Re, W9Im   []float64
	W10Re, W10Im []float64
	W11Re, W11Im []float64
	W12Re, W12Im []float64
	W13Re, W13Im []float64
	W14Re, W14Im []float64
	W15Re, W15Im []float64
}

// legs returns the twiddle planes indexed by output slot (slot 0 is
// untwiddled, so legs[0] is {nil, nil}).
func (st *SplitTwiddles) legs() [16][2][]float64 {
	return [16][2][]float64{
		{}, {st.W1Re, st.W1Im}, {st.W2Re, st.W2Im}, {st.W3Re, st.W3Im},
		{st.W4Re, st.W4Im}, {st.W5Re, st.W5Im}, {st.W6Re, st.W6Im},
		{st.W7Re, st.W7Im}, {st.W8Re, st.W8Im}, {st.W9Re, st.W9Im},
		{st.W10Re, st.W10Im}, {st.W11Re, st.W11Im}, {st.W12Re, st.W12Im},
		{st.W13Re, st.W13Im}, {st.W14Re, st.W14Im}, {st.W15Re, st.W15Im},
	}
}

// NewSplitTwiddles converts interleaved stage twiddles to split format.
func NewSplitTwiddles(tw StageTwiddles) SplitTwiddles {
	split := func(w []complex128) (re, im []float64) {
		re = make([]float64, len(w))
		im = make([]float64, len(w))
		for i, c := range w {
			re[i], im[i] = real(c), imag(c)
		}
		return
	}
	st := SplitTwiddles{Radix: tw.Radix}
	st.W1Re, st.W1Im = split(tw.W1)
	if tw.Radix >= 4 {
		st.W2Re, st.W2Im = split(tw.W2)
		st.W3Re, st.W3Im = split(tw.W3)
	}
	if tw.Radix >= 8 {
		st.W4Re, st.W4Im = split(tw.W4)
		st.W5Re, st.W5Im = split(tw.W5)
		st.W6Re, st.W6Im = split(tw.W6)
		st.W7Re, st.W7Im = split(tw.W7)
	}
	if tw.Radix == 16 {
		st.W8Re, st.W8Im = split(tw.W8)
		st.W9Re, st.W9Im = split(tw.W9)
		st.W10Re, st.W10Im = split(tw.W10)
		st.W11Re, st.W11Im = split(tw.W11)
		st.W12Re, st.W12Im = split(tw.W12)
		st.W13Re, st.W13Im = split(tw.W13)
		st.W14Re, st.W14Im = split(tw.W14)
		st.W15Re, st.W15Im = split(tw.W15)
	}
	return st
}

// SplitRadix2Step performs one Stockham radix-2 stage in split format.
// The arrays hold 2*m groups of s lanes.
func SplitRadix2Step(dstRe, dstIm, srcRe, srcIm []float64, m, s int, tw SplitTwiddles) {
	for p := 0; p < m; p++ {
		wr, wi := tw.W1Re[p], tw.W1Im[p]
		aRe := srcRe[s*p : s*p+s]
		aIm := srcIm[s*p : s*p+s]
		bRe := srcRe[s*(p+m) : s*(p+m)+s]
		bIm := srcIm[s*(p+m) : s*(p+m)+s]
		yaRe := dstRe[s*2*p : s*2*p+s]
		yaIm := dstIm[s*2*p : s*2*p+s]
		ybRe := dstRe[s*(2*p+1) : s*(2*p+1)+s]
		ybIm := dstIm[s*(2*p+1) : s*(2*p+1)+s]
		for q := 0; q < s; q++ {
			ar, ai := aRe[q], aIm[q]
			br, bi := bRe[q], bIm[q]
			yaRe[q] = ar + br
			yaIm[q] = ai + bi
			dr, di := ar-br, ai-bi
			ybRe[q] = dr*wr - di*wi
			ybIm[q] = dr*wi + di*wr
		}
	}
}

// SplitRadix4Step performs one Stockham radix-4 stage in split format.
// sign must match the direction used to build tw.
func SplitRadix4Step(dstRe, dstIm, srcRe, srcIm []float64, m, s, sign int, tw SplitTwiddles) {
	jim := 1.0
	if sign == Forward {
		jim = -1.0
	}
	for p := 0; p < m; p++ {
		w1r, w1i := tw.W1Re[p], tw.W1Im[p]
		w2r, w2i := tw.W2Re[p], tw.W2Im[p]
		w3r, w3i := tw.W3Re[p], tw.W3Im[p]
		aRe := srcRe[s*p : s*p+s]
		aIm := srcIm[s*p : s*p+s]
		bRe := srcRe[s*(p+m) : s*(p+m)+s]
		bIm := srcIm[s*(p+m) : s*(p+m)+s]
		cRe := srcRe[s*(p+2*m) : s*(p+2*m)+s]
		cIm := srcIm[s*(p+2*m) : s*(p+2*m)+s]
		dRe := srcRe[s*(p+3*m) : s*(p+3*m)+s]
		dIm := srcIm[s*(p+3*m) : s*(p+3*m)+s]
		y0Re := dstRe[s*4*p : s*4*p+s]
		y0Im := dstIm[s*4*p : s*4*p+s]
		y1Re := dstRe[s*(4*p+1) : s*(4*p+1)+s]
		y1Im := dstIm[s*(4*p+1) : s*(4*p+1)+s]
		y2Re := dstRe[s*(4*p+2) : s*(4*p+2)+s]
		y2Im := dstIm[s*(4*p+2) : s*(4*p+2)+s]
		y3Re := dstRe[s*(4*p+3) : s*(4*p+3)+s]
		y3Im := dstIm[s*(4*p+3) : s*(4*p+3)+s]
		for q := 0; q < s; q++ {
			ar, ai := aRe[q], aIm[q]
			br, bi := bRe[q], bIm[q]
			cr, ci := cRe[q], cIm[q]
			dr, di := dRe[q], dIm[q]
			apcR, apcI := ar+cr, ai+ci
			amcR, amcI := ar-cr, ai-ci
			bpdR, bpdI := br+dr, bi+di
			bmdR, bmdI := br-dr, bi-di
			// jbmd = (jim*i)*(bmd): re = -jim*bmdI, im = jim*bmdR
			jbR, jbI := -jim*bmdI, jim*bmdR
			y0Re[q] = apcR + bpdR
			y0Im[q] = apcI + bpdI
			t1R, t1I := amcR+jbR, amcI+jbI
			y1Re[q] = t1R*w1r - t1I*w1i
			y1Im[q] = t1R*w1i + t1I*w1r
			t2R, t2I := apcR-bpdR, apcI-bpdI
			y2Re[q] = t2R*w2r - t2I*w2i
			y2Im[q] = t2R*w2i + t2I*w2r
			t3R, t3I := amcR-jbR, amcI-jbI
			y3Re[q] = t3R*w3r - t3I*w3i
			y3Im[q] = t3R*w3i + t3I*w3r
		}
	}
}

// SplitRadix8Step performs one Stockham radix-8 stage in split format.
// sign must match the direction used to build tw. Same butterfly as
// Radix8Step (even/odd split into two DFT₄s) over separate re/im planes.
func SplitRadix8Step(dstRe, dstIm, srcRe, srcIm []float64, m, s, sign int, tw SplitTwiddles) {
	jim := 1.0
	if sign == Forward {
		jim = -1.0
	}
	h := sqrt1_2
	for p := 0; p < m; p++ {
		w1r, w1i := tw.W1Re[p], tw.W1Im[p]
		w2r, w2i := tw.W2Re[p], tw.W2Im[p]
		w3r, w3i := tw.W3Re[p], tw.W3Im[p]
		w4r, w4i := tw.W4Re[p], tw.W4Im[p]
		w5r, w5i := tw.W5Re[p], tw.W5Im[p]
		w6r, w6i := tw.W6Re[p], tw.W6Im[p]
		w7r, w7i := tw.W7Re[p], tw.W7Im[p]
		x0Re := srcRe[s*p : s*p+s]
		x0Im := srcIm[s*p : s*p+s]
		x1Re := srcRe[s*(p+m) : s*(p+m)+s]
		x1Im := srcIm[s*(p+m) : s*(p+m)+s]
		x2Re := srcRe[s*(p+2*m) : s*(p+2*m)+s]
		x2Im := srcIm[s*(p+2*m) : s*(p+2*m)+s]
		x3Re := srcRe[s*(p+3*m) : s*(p+3*m)+s]
		x3Im := srcIm[s*(p+3*m) : s*(p+3*m)+s]
		x4Re := srcRe[s*(p+4*m) : s*(p+4*m)+s]
		x4Im := srcIm[s*(p+4*m) : s*(p+4*m)+s]
		x5Re := srcRe[s*(p+5*m) : s*(p+5*m)+s]
		x5Im := srcIm[s*(p+5*m) : s*(p+5*m)+s]
		x6Re := srcRe[s*(p+6*m) : s*(p+6*m)+s]
		x6Im := srcIm[s*(p+6*m) : s*(p+6*m)+s]
		x7Re := srcRe[s*(p+7*m) : s*(p+7*m)+s]
		x7Im := srcIm[s*(p+7*m) : s*(p+7*m)+s]
		y0Re := dstRe[s*8*p : s*8*p+s]
		y0Im := dstIm[s*8*p : s*8*p+s]
		y1Re := dstRe[s*(8*p+1) : s*(8*p+1)+s]
		y1Im := dstIm[s*(8*p+1) : s*(8*p+1)+s]
		y2Re := dstRe[s*(8*p+2) : s*(8*p+2)+s]
		y2Im := dstIm[s*(8*p+2) : s*(8*p+2)+s]
		y3Re := dstRe[s*(8*p+3) : s*(8*p+3)+s]
		y3Im := dstIm[s*(8*p+3) : s*(8*p+3)+s]
		y4Re := dstRe[s*(8*p+4) : s*(8*p+4)+s]
		y4Im := dstIm[s*(8*p+4) : s*(8*p+4)+s]
		y5Re := dstRe[s*(8*p+5) : s*(8*p+5)+s]
		y5Im := dstIm[s*(8*p+5) : s*(8*p+5)+s]
		y6Re := dstRe[s*(8*p+6) : s*(8*p+6)+s]
		y6Im := dstIm[s*(8*p+6) : s*(8*p+6)+s]
		y7Re := dstRe[s*(8*p+7) : s*(8*p+7)+s]
		y7Im := dstIm[s*(8*p+7) : s*(8*p+7)+s]
		for q := 0; q < s; q++ {
			a0r, a0i := x0Re[q], x0Im[q]
			a1r, a1i := x1Re[q], x1Im[q]
			a2r, a2i := x2Re[q], x2Im[q]
			a3r, a3i := x3Re[q], x3Im[q]
			a4r, a4i := x4Re[q], x4Im[q]
			a5r, a5i := x5Re[q], x5Im[q]
			a6r, a6i := x6Re[q], x6Im[q]
			a7r, a7i := x7Re[q], x7Im[q]
			e0r, e0i := a0r+a4r, a0i+a4i
			e1r, e1i := a1r+a5r, a1i+a5i
			e2r, e2i := a2r+a6r, a2i+a6i
			e3r, e3i := a3r+a7r, a3i+a7i
			o0r, o0i := a0r-a4r, a0i-a4i
			t1r, t1i := a1r-a5r, a1i-a5i
			t2r, t2i := a2r-a6r, a2i-a6i
			t3r, t3i := a3r-a7r, a3i-a7i
			o1r, o1i := h*(t1r-jim*t1i), h*(t1i+jim*t1r)
			o2r, o2i := -jim*t2i, jim*t2r
			o3r, o3i := -h*(t3r+jim*t3i), h*(jim*t3r-t3i)
			epcR, epcI := e0r+e2r, e0i+e2i
			emcR, emcI := e0r-e2r, e0i-e2i
			fpdR, fpdI := e1r+e3r, e1i+e3i
			fmdR, fmdI := e1r-e3r, e1i-e3i
			jfR, jfI := -jim*fmdI, jim*fmdR
			opcR, opcI := o0r+o2r, o0i+o2i
			omcR, omcI := o0r-o2r, o0i-o2i
			qpdR, qpdI := o1r+o3r, o1i+o3i
			qmdR, qmdI := o1r-o3r, o1i-o3i
			jqR, jqI := -jim*qmdI, jim*qmdR
			y0Re[q] = epcR + fpdR
			y0Im[q] = epcI + fpdI
			t1R, t1I := opcR+qpdR, opcI+qpdI
			y1Re[q] = t1R*w1r - t1I*w1i
			y1Im[q] = t1R*w1i + t1I*w1r
			t2R, t2I := emcR+jfR, emcI+jfI
			y2Re[q] = t2R*w2r - t2I*w2i
			y2Im[q] = t2R*w2i + t2I*w2r
			t3R, t3I := omcR+jqR, omcI+jqI
			y3Re[q] = t3R*w3r - t3I*w3i
			y3Im[q] = t3R*w3i + t3I*w3r
			t4R, t4I := epcR-fpdR, epcI-fpdI
			y4Re[q] = t4R*w4r - t4I*w4i
			y4Im[q] = t4R*w4i + t4I*w4r
			t5R, t5I := opcR-qpdR, opcI-qpdI
			y5Re[q] = t5R*w5r - t5I*w5i
			y5Im[q] = t5R*w5i + t5I*w5r
			t6R, t6I := emcR-jfR, emcI-jfI
			y6Re[q] = t6R*w6r - t6I*w6i
			y6Im[q] = t6R*w6i + t6I*w6r
			t7R, t7I := omcR-jqR, omcI-jqI
			y7Re[q] = t7R*w7r - t7I*w7i
			y7Im[q] = t7R*w7i + t7I*w7r
		}
	}
}

// SplitRadix16Step performs one fused radix-16 Stockham stage (two radix-4
// rank stages in registers, see Radix16Step) in split format. sign must
// match the direction used to build tw.
func SplitRadix16Step(dstRe, dstIm, srcRe, srcIm []float64, m, s, sign int, tw SplitTwiddles) {
	jim := 1.0
	if sign == Forward {
		jim = -1.0
	}
	h := sqrt1_2
	ws := tw.legs()
	var uR, uI [16]float64
	rot := func(idx int, a, b float64) {
		vr, vi := uR[idx], uI[idx]
		uR[idx] = a*vr - jim*b*vi
		uI[idx] = a*vi + jim*b*vr
	}
	for p := 0; p < m; p++ {
		for q := 0; q < s; q++ {
			// Pass A: DFT₄ over kA within each residue kB.
			step := s * 4 * m
			for kB := 0; kB < 4; kB++ {
				o := s*(p+kB*m) + q
				ar, ai := srcRe[o], srcIm[o]
				br, bi := srcRe[o+step], srcIm[o+step]
				cr, ci := srcRe[o+2*step], srcIm[o+2*step]
				dr, di := srcRe[o+3*step], srcIm[o+3*step]
				apcR, apcI := ar+cr, ai+ci
				amcR, amcI := ar-cr, ai-ci
				bpdR, bpdI := br+dr, bi+di
				bmdR, bmdI := br-dr, bi-di
				jbR, jbI := -jim*bmdI, jim*bmdR
				uR[kB], uI[kB] = apcR+bpdR, apcI+bpdI
				uR[4+kB], uI[4+kB] = amcR+jbR, amcI+jbI
				uR[8+kB], uI[8+kB] = apcR-bpdR, apcI-bpdI
				uR[12+kB], uI[12+kB] = amcR-jbR, amcI-jbI
			}
			// Inter-rank rotations u[4·jA+kB] ·= ω̂₁₆^{jA·kB}.
			rot(4+1, cosPi8, sinPi8)
			rot(4+2, h, h)
			rot(4+3, sinPi8, cosPi8)
			rot(8+1, h, h)
			rot(8+2, 0, 1)
			rot(8+3, -h, h)
			rot(12+1, sinPi8, cosPi8)
			rot(12+2, -h, h)
			rot(12+3, -cosPi8, -sinPi8)
			// Pass B: DFT₄ over kB per jA; slot r = 4·jB + jA gets leg W_r.
			for jA := 0; jA < 4; jA++ {
				ar, ai := uR[4*jA], uI[4*jA]
				br, bi := uR[4*jA+1], uI[4*jA+1]
				cr, ci := uR[4*jA+2], uI[4*jA+2]
				dr, di := uR[4*jA+3], uI[4*jA+3]
				apcR, apcI := ar+cr, ai+ci
				amcR, amcI := ar-cr, ai-ci
				bpdR, bpdI := br+dr, bi+di
				bmdR, bmdI := br-dr, bi-di
				jbR, jbI := -jim*bmdI, jim*bmdR
				o := s*16*p + q
				store := func(r int, tR, tI float64) {
					if r == 0 {
						dstRe[o], dstIm[o] = tR, tI
						return
					}
					wr, wi := ws[r][0][p], ws[r][1][p]
					dstRe[o+s*r] = tR*wr - tI*wi
					dstIm[o+s*r] = tR*wi + tI*wr
				}
				store(jA, apcR+bpdR, apcI+bpdI)
				store(4+jA, amcR+jbR, amcI+jbI)
				store(8+jA, apcR-bpdR, apcI-bpdI)
				store(12+jA, amcR-jbR, amcI-jbI)
			}
		}
	}
}
