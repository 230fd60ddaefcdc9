package obs

import (
	"bytes"
	"testing"
	"time"
)

func TestQuantileEmptyHistogram(t *testing.T) {
	var counts [64]uint64
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := Log2Quantile(&counts, q); got != 0 {
			t.Fatalf("Log2Quantile(empty, %v) = %v, want 0", q, got)
		}
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	var counts [64]uint64
	counts[5] = 10 // latencies in [32, 64) ns → upper bound 64ns
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := Log2Quantile(&counts, q); got != 64 {
			t.Fatalf("Log2Quantile(single bucket, %v) = %v, want 64ns", q, got)
		}
	}
}

func TestQuantileExtremes(t *testing.T) {
	var counts [64]uint64
	counts[3] = 50  // [8, 16) ns
	counts[10] = 50 // [1024, 2048) ns
	if got := Log2Quantile(&counts, 0); got != 16 {
		t.Fatalf("q=0 = %v, want first bucket bound 16ns", got)
	}
	if got := Log2Quantile(&counts, 1); got != 2048 {
		t.Fatalf("q=1 = %v, want last bucket bound 2048ns", got)
	}
	// q=0.5: rank 50 falls in the second bucket (cum 50 is not > 50 at
	// bucket 3, becomes 100 > 50 at bucket 10).
	if got := Log2Quantile(&counts, 0.5); got != 2048 {
		t.Fatalf("q=0.5 = %v, want 2048ns", got)
	}
}

func TestQuantileOverflowBuckets(t *testing.T) {
	// Buckets 62 and 63 would overflow time.Duration at 1<<63; the bound
	// is clamped to 1<<62.
	for _, i := range []int{62, 63} {
		var counts [64]uint64
		counts[i] = 1
		if got := Log2Quantile(&counts, 0.5); got != 1<<62 {
			t.Fatalf("Log2Quantile(bucket %d) = %v, want 1<<62 ns", i, got)
		}
	}
}

func TestQuantileSyntheticDistribution(t *testing.T) {
	// 900 fast observations around 1µs, 91 around 1ms, 9 around 1s:
	// p50 must land in the fast band, p99 in the millisecond band (rank
	// 990 < cumulative 991), and the max (q=1) in the second band.
	// Round-trips through ObservePeerChunk to cover the bucketing path too.
	var m ShardMetrics
	for i := 0; i < 900; i++ {
		m.ObservePeerChunk("p", 0, time.Microsecond)
	}
	for i := 0; i < 91; i++ {
		m.ObservePeerChunk("p", 0, time.Millisecond)
	}
	for i := 0; i < 9; i++ {
		m.ObservePeerChunk("p", 0, time.Second)
	}
	counts := &m.peers["p"].buckets
	p50 := time.Duration(Log2Quantile(counts, 0.50))
	p99 := time.Duration(Log2Quantile(counts, 0.99))
	max := time.Duration(Log2Quantile(counts, 1))
	if p50 < time.Microsecond || p50 > 2*time.Microsecond {
		t.Fatalf("p50 = %v, want within 2× of 1µs", p50)
	}
	if p99 < time.Millisecond || p99 > 2*time.Millisecond {
		t.Fatalf("p99 = %v, want within 2× of 1ms", p99)
	}
	if max < time.Second || max > 2*time.Second {
		t.Fatalf("max = %v, want within 2× of 1s", max)
	}
	if snap := m.PeerSnapshots(); len(snap) != 1 || snap[0].P50Ns != int64(p50) || snap[0].P99Ns != int64(p99) {
		t.Fatalf("PeerSnapshots = %+v, want p50 %d p99 %d", snap, p50, p99)
	}
}

// The exposition is parsed by scrapers keyed on the exact le labels, so
// pin the text: cumulative buckets up to the highest occupied one, le in
// seconds ahead of the caller's labels, then +Inf, _sum and _count.
func TestLog2HistogramExposition(t *testing.T) {
	var buckets [64]float64
	buckets[1] = 2 // [2, 4) ns
	buckets[3] = 1 // [8, 16) ns
	var b bytes.Buffer
	p := NewPromWriter(&b)
	p.Log2Histogram("h", &buckets, 1.5e-8, 3, "peer", "x")
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	want := `h_bucket{le="2e-09",peer="x"} 0
h_bucket{le="4e-09",peer="x"} 2
h_bucket{le="8e-09",peer="x"} 2
h_bucket{le="1.6e-08",peer="x"} 3
h_bucket{le="+Inf",peer="x"} 3
h_sum{peer="x"} 1.5e-08
h_count{peer="x"} 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
