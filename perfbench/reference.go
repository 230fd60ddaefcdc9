package main

import (
	"fmt"
	"math"
	"math/cmplx"
)

// The references below are direct sums in plain Go, independent of every
// package under test. Forward uses sign -1 and is unnormalized; inverse
// references carry the 1/N the program's inverse applies.

// Tolerances. A transform of N values in float64 is accurate to a few
// ulps·log N relative to the signal norm; a wrong result is off by O(1).
const (
	relTol  = 1e-9 // ‖got − want‖₂ / ‖want‖₂
	spotTol = 1e-9 // |got − want| / ‖x‖₂ for single bins of a large transform
)

// twiddles returns e^{sign·2πi·t/n} for t = 0..n-1.
func twiddles(n, sign int) []complex128 {
	w := make([]complex128, n)
	for t := range w {
		s, c := math.Sincos(2 * math.Pi * float64(t) / float64(n))
		w[t] = complex(c, float64(sign)*s)
	}
	return w
}

// dft is the O(n²) direct transform of x.
func dft(x []complex128, sign int) []complex128 {
	n := len(x)
	w := twiddles(n, sign)
	out := make([]complex128, n)
	for k := range out {
		var acc complex128
		idx := 0
		for j := 0; j < n; j++ {
			acc += x[j] * w[idx]
			if idx += k; idx >= n {
				idx -= n
			}
		}
		out[k] = acc
	}
	return out
}

// dft2 is the row-column direct transform of a rows×cols row-major matrix.
func dft2(x []complex128, rows, cols, sign int) []complex128 {
	out := make([]complex128, len(x))
	for r := 0; r < rows; r++ {
		copy(out[r*cols:(r+1)*cols], dft(x[r*cols:(r+1)*cols], sign))
	}
	col := make([]complex128, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = out[r*cols+c]
		}
		for r, v := range dft(col, sign) {
			out[r*cols+c] = v
		}
	}
	return out
}

func scaled(x []complex128, s float64) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = v * complex(s, 0)
	}
	return out
}

// spotBin is the forward DFT of x (row-major, dims slowest first) at one
// frequency, by direct summation: N complex multiply-adds.
func spotBin(x []complex128, dims, freq []int) complex128 {
	w := make([][]complex128, len(dims))
	for d, n := range dims {
		w[d] = twiddles(n, -1)
	}
	var rec func(d, off int) complex128
	rec = func(d, off int) complex128 {
		n := dims[d]
		var acc complex128
		idx := 0
		for j := 0; j < n; j++ {
			var v complex128
			if d == len(dims)-1 {
				v = x[off+j]
			} else {
				v = rec(d+1, (off+j)*dims[d+1])
			}
			acc += v * w[d][idx]
			if idx += freq[d]; idx >= n {
				idx -= n
			}
		}
		return acc
	}
	return rec(0, 0)
}

// binIndex returns the row-major offset of freq in dims.
func binIndex(dims, freq []int) int {
	off := 0
	for d, n := range dims {
		off = off*n + freq[d]
	}
	return off
}

func norm2(x []complex128) float64 {
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// checkClose reports whether got matches want within relTol.
func checkClose(got, want []complex128) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	var d float64
	for i, v := range got {
		e := v - want[i]
		d += real(e)*real(e) + imag(e)*imag(e)
	}
	if rel := math.Sqrt(d) / norm2(want); !(rel <= relTol) {
		return fmt.Errorf("relative error %.3g exceeds %g", rel, relTol)
	}
	return nil
}

// spot is one precomputed reference bin of a large forward transform.
type spot struct {
	Index int
	Want  complex128
}

// spotBins computes the reference bins of x's forward transform at DC and
// count-1 seeded frequencies.
func spotBins(r *rng, x []complex128, dims []int, count int) []spot {
	out := make([]spot, 0, count)
	for i := 0; i < count; i++ {
		freq := make([]int, len(dims))
		if i > 0 {
			for d, n := range dims {
				freq[d] = r.intn(n)
			}
		}
		out = append(out, spot{binIndex(dims, freq), spotBin(x, dims, freq)})
	}
	return out
}

// checkSpots compares a forward output against the reference bins.
func checkSpots(got []complex128, spots []spot, xnorm float64) error {
	for _, s := range spots {
		if e := cmplx.Abs(got[s.Index]-s.Want) / xnorm; !(e <= spotTol) {
			return fmt.Errorf("bin %d off by %.3g·‖x‖ (tolerance %g)", s.Index, e, spotTol)
		}
	}
	return nil
}
