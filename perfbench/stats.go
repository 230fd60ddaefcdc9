package main

import (
	"sort"
	"time"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder are the percentiles a tail is reported at: the nines, so the
// reported one sits a decade into the tail rather than at a mode boundary.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// tail returns the highest percentile of tailLadder that has at least ten
// samples beyond it, and that percentile. With fewer than twenty samples
// not even the median qualifies; tail then returns the maximum, labelled
// p100.
func tail(xs []float64) (value, pct float64) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		if n*(100-p)/100 >= 10-1e-9 {
			return quantile(xs, p/100), p
		}
	}
	if len(xs) == 0 {
		return 0, 0
	}
	return quantile(xs, 1), 100
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// pairedOverhead returns the tracing overhead of a loop that alternates
// two directions of unequal cost and traces whole pairs: per direction the
// median traced latency minus the median untraced one, averaged over the
// two, so the direction mix of each half cannot pass for tracing cost. ok
// is false when a half lacks a direction.
func pairedOverhead(untraced, traced [2]latencies) (d float64, ok bool) {
	for dir := range untraced {
		if len(untraced[dir]) == 0 || len(traced[dir]) == 0 {
			return 0, false
		}
		d += (median(traced[dir]) - median(untraced[dir])) / 2
	}
	return d, true
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latencies accumulates per-operation latencies in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }
