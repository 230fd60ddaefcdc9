package cvec

// Split is a block-interleaved (split-format) complex vector: the real parts
// of all elements live in Re and the imaginary parts in Im. This is the
// layout the paper's middle compute stages run in, because it lets vector
// kernels consume whole cachelines of reals and whole cachelines of
// imaginaries instead of interleaved pairs. The transforms here run
// interleaved; Split feeds the split side of the kernel format ablation.
type Split struct {
	Re []float64
	Im []float64
}

// NewSplit returns a zeroed split vector of length n.
func NewSplit(n int) Split {
	return Split{Re: make([]float64, n), Im: make([]float64, n)}
}

// Len returns the number of complex elements.
func (s Split) Len() int { return len(s.Re) }

// ToVec converts s to a complex-interleaved vector.
func (s Split) ToVec() Vec {
	v := make(Vec, s.Len())
	for i := range v {
		v[i] = complex(s.Re[i], s.Im[i])
	}
	return v
}

// FromVec converts a complex-interleaved vector to split format.
func FromVec(v Vec) Split {
	s := NewSplit(len(v))
	for i, c := range v {
		s.Re[i] = real(c)
		s.Im[i] = imag(c)
	}
	return s
}
