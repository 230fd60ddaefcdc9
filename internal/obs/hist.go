package obs

import "strconv"

// Log₂ latency histograms: a [64] count array whose bucket i holds
// durations in [2^i, 2^(i+1)) ns, so 64 buckets at nanosecond base cover
// every observable duration. The serving layer's request histogram and the
// shard tier's per-peer chunk histograms share this layout; Log2Quantile
// and PromWriter.Log2Histogram are its one quantile rule and its one
// exposition.

// Log2Quantile returns the upper bound in nanoseconds of the bucket holding
// the q-th fraction of observations (0 when nothing was observed). Bucketed
// quantiles are coarse — within 2× — which is plenty to tell a queueing
// collapse from a healthy pipeline. The top two buckets report 2^62 ns so
// the bound never overflows a time.Duration.
func Log2Quantile(counts *[64]uint64, q float64) int64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum > rank {
			if i >= 62 {
				return 1 << 62
			}
			return 1 << uint(i+1)
		}
	}
	return 1 << 62
}

// Log2Histogram writes the samples of histogram family name from log₂
// buckets: one cumulative _bucket line per bucket up to the highest
// occupied one (trailing empty buckets add nothing beyond +Inf), each
// bucket's le being its upper bound in seconds, then the +Inf bucket,
// _sum and _count. labels follow le on the bucket lines and label every
// line. count is the +Inf and _count value; callers that scale sampled
// buckets pass the scaled total.
func (p *PromWriter) Log2Histogram(name string, buckets *[64]float64, sumSeconds, count float64, labels ...string) {
	last := -1
	for i, b := range buckets {
		if b > 0 {
			last = i
		}
	}
	var cum float64
	for i := 0; i <= last; i++ {
		cum += buckets[i]
		ub := float64(uint64(1)<<uint(i+1)) / 1e9
		p.Sample(name+"_bucket", cum,
			append([]string{"le", strconv.FormatFloat(ub, 'g', -1, 64)}, labels...)...)
	}
	p.Sample(name+"_bucket", count, append([]string{"le", "+Inf"}, labels...)...)
	p.Sample(name+"_sum", sumSeconds, labels...)
	p.Sample(name+"_count", count, labels...)
}
