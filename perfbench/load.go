package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// rng is a splitmix64 generator. Every input the benchmark sends is drawn
// from one, seeded from --seed and a stream name, so a seed fixes the
// inputs and the request order, and the program under test sees only the
// generated values.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ h.Sum64()}
}

func (r *rng) u64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.u64()>>11) / (1 << 53) }

// sym returns a uniform value in [-1, 1).
func (r *rng) sym() float64 { return 2*r.float() - 1 }

func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

func randomComplex(r *rng, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.sym(), r.sym())
	}
	return x
}

// zipf samples ranks 0..n-1 with P(k) ∝ 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf}
}

func (z zipf) sample(r *rng) int {
	u := r.float()
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}

// mixLengths are the 1D transform lengths of the http-1d-mix workload,
// most popular first: powers of two, smooth composites and primes
// (Bluestein plans). There are more (length, real) plan keys than the
// server's 32-plan cache holds, so the Zipf tail keeps evicting and
// rebuilding.
var mixLengths = []int{
	1024, 256, 512, 64, 128, 2048, 1000, 360, 16, 384,
	720, 97, 1536, 100, 240, 32, 1021, 480, 127, 768,
	60, 2039, 144, 509, 1920, 251, 96, 600, 17, 1200,
	61, 243, 31, 1800, 257, 640, 625, 48, 80, 200,
}

const (
	mixZipfS     = 1.1
	mixRealShare = 0.25
)

// mixKey identifies one distinct input of the 1D mix: its signal and
// reference depend only on the length and whether it is real.
type mixKey struct {
	N    int
	Real bool
}

type mixReq struct {
	mixKey
	Inverse bool
}

// mixKeys returns every key of the mix: each length complex, and real
// too when the length is even.
func mixKeys() []mixKey {
	var keys []mixKey
	for _, n := range mixLengths {
		keys = append(keys, mixKey{n, false})
		if n%2 == 0 {
			keys = append(keys, mixKey{n, true})
		}
	}
	return keys
}

// mixOrder returns the requests one connection sends, in order: a
// Zipf-chosen length, real with probability mixRealShare when the length
// is even, forward or inverse with equal probability.
func mixOrder(seed uint64, conn, count int) []mixReq {
	r := newRNG(seed, fmt.Sprintf("mix-order-%d", conn))
	z := newZipf(len(mixLengths), mixZipfS)
	out := make([]mixReq, count)
	for i := range out {
		n := mixLengths[z.sample(r)]
		isReal := n%2 == 0 && r.float() < mixRealShare
		out[i] = mixReq{mixKey{n, isReal}, r.float() < 0.5}
	}
	return out
}

// mixInput returns the seeded input signal of one key: n complex values,
// or n reals stored as the real parts.
func mixInput(seed uint64, k mixKey) []complex128 {
	x := randomComplex(newRNG(seed, fmt.Sprintf("mix-input-%d-%t", k.N, k.Real)), k.N)
	if k.Real {
		for i := range x {
			x[i] = complex(real(x[i]), 0)
		}
	}
	return x
}

// pool2D returns the seeded 256×256 input pool of the http-2d-json
// workload.
func pool2D(seed uint64, count, n int) [][]complex128 {
	r := newRNG(seed, "pool-2d")
	out := make([][]complex128, count)
	for i := range out {
		out[i] = randomComplex(r, n)
	}
	return out
}

// closedOrder returns the pool indices one connection of a closed loop
// sends, in order; the direction alternates forward, inverse along it.
func closedOrder(seed uint64, conn, poolSize, count int) []int {
	r := newRNG(seed, fmt.Sprintf("order-%d", conn))
	out := make([]int, count)
	for i := range out {
		out[i] = r.intn(poolSize)
	}
	return out
}
