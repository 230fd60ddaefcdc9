package main

import (
	"context"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/trace"
)

const (
	setupRepsShard = 9 // set-ups per run; setup_s is their median

	shardNodes = 2
	shardDim   = 128
	shardPool  = 2
)

// shardCounters is a reading of the obs.ShardMetrics counters the
// coordinator and its in-process workers update.
type shardCounters struct {
	exchangeBytes, exchangeChunks, scatter, gather, retries, rejected, waitNs int64
}

func readShard(m *obs.ShardMetrics) shardCounters {
	return shardCounters{
		exchangeBytes:  m.BytesSent.Load(),
		exchangeChunks: m.ChunksSent.Load(),
		scatter:        m.ScatterBytes.Load(),
		gather:         m.GatherBytes.Load(),
		retries:        m.Retries.Load(),
		rejected:       m.ChunksRejected.Load(),
		waitNs:         m.ExchangeWaitNanos.Load(),
	}
}

// runShard drives the shard-3d-loopback workload: one caller running
// 128³ forward and inverse transforms through a two-worker loopback
// cluster. References come from the single-node plan, itself checked
// against direct-sum bins.
func runShard(e *env) (*result, error) {
	const k = shardDim
	n := k * k * k
	dims := []int{k, k, k}
	res := newResult()
	ctx := context.Background()

	single, err := repro.NewFFT3D(k, k, k)
	if err != nil {
		return nil, err
	}
	defer single.Close()
	r := newRNG(e.seed, "shard")
	var xs, Xs, Ns [][]complex128 // inputs, forward references, N·inputs
	var singleMs latencies
	for i := 0; i < shardPool; i++ {
		x := randomComplex(r, n)
		spots := spotBins(r, x, dims, spotCount)
		X := make([]complex128, n)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			err := single.Forward(X, x)
			singleMs.add(time.Since(t0))
			if err == nil {
				err = checkSpots(X, spots, norm2(x))
			}
			if err != nil {
				return nil, err
			}
		}
		xs, Xs, Ns = append(xs, x), append(Xs, X), append(Ns, scaled(x, float64(n)))
	}
	dst := make([]complex128, n)

	// A traced run hands the coordinator a span recorder, so its own
	// begin, scatter, run and gather spans can be nested under each traced
	// Transform call.
	var coordOpts shard.CoordinatorOptions
	if e.tr.on {
		coordOpts.Tracer = trace.NewRing(4096)
	}
	var setups []float64
	var cl *shard.Cluster
	for rep := 0; rep < setupRepsShard; rep++ {
		if cl != nil {
			cl.Close()
			runtime.GC()
		}
		t0 := time.Now()
		if cl, err = shard.StartCluster(shardNodes, shard.WorkerOptions{}, coordOpts); err != nil {
			return nil, err
		}
		err = cl.Coord.Transform(ctx, dst, xs[0], k, k, k, -1)
		setups = append(setups, time.Since(t0).Seconds())
		if err == nil {
			err = checkClose(dst, Xs[0])
		}
		res.op(err)
	}
	defer cl.Close()
	res.note("setup_s: cluster start plus the first transform, median of %d %v", len(setups), fmtSeconds(setups))

	order := closedOrder(e.seed, 0, shardPool, 1<<16)
	before := readShard(obs.ShardDefault)
	var lat latencies
	var early, late [2]latencies // by direction: forward, inverse
	var straggler []float64
	start := time.Now()
	deadline, half := start.Add(e.seconds), start.Add(e.seconds/2)
	traced := false
	// Whole forward/inverse pairs only: the two directions differ in cost,
	// so an unpaired extra call would tilt the median.
	for i := 0; i%2 == 1 || time.Now().Before(deadline); i++ {
		dir := i % 2
		if dir == 0 {
			traced = e.tr.on && time.Now().After(half)
		}
		p := order[i%len(order)]
		src, want, sign := xs[p], Xs[p], -1
		name := "shard.Coordinator.Transform.forward"
		if dir == 1 {
			src, want, sign = Xs[p], Ns[p], 1
			name = "shard.Coordinator.Transform.inverse"
		}
		var root, child int
		if traced {
			root = e.tr.begin("bench.op", 0, i+1)
			child = e.tr.begin(name, root, i+1)
		}
		t0 := time.Now()
		err := cl.Coord.Transform(ctx, dst, src, k, k, k, sign)
		d := time.Since(t0)
		e.tr.end(child)
		e.tr.end(root)
		if traced {
			_, spans := coordOpts.Tracer.ForTrace(cl.Coord.LastTraceID())
			for _, s := range spans {
				e.tr.record(s.Name, child, i+1, s.Start, s.End)
			}
		}
		straggler = append(straggler, obs.ShardDefault.StragglerRatio())
		if err == nil {
			err = checkClose(dst, want)
		}
		res.op(err)
		if err == nil {
			lat.add(d)
			if traced {
				late[dir].add(d)
			} else {
				early[dir].add(d)
			}
		}
	}
	after := readShard(obs.ShardDefault)

	tailV, tailP := tail(lat)
	res.e2e["setup_s"] = median(setups)
	res.e2e["ops_per_s"] = 1e3 * float64(len(lat)) / sum(lat)
	res.e2e["latency_p50_ms"] = median(lat)
	res.e2e["latency_tail_ms"] = tailV
	peak, err := vmHWMMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.e2e["peak_rss_mib"] = peak
	res.note("latency_tail_ms is p%.2f of %d transforms", tailP, len(lat))

	ops := float64(len(straggler))
	res.layer["shard.exchange_bytes"] = float64(after.exchangeBytes-before.exchangeBytes) / ops
	res.layer["shard.exchange_chunks"] = float64(after.exchangeChunks-before.exchangeChunks) / ops
	res.layer["shard.scatter_bytes"] = float64(after.scatter-before.scatter) / ops
	res.layer["shard.gather_bytes"] = float64(after.gather-before.gather) / ops
	res.layer["shard.retries"] = float64(after.retries - before.retries)
	res.layer["shard.chunks_rejected"] = float64(after.rejected - before.rejected)
	res.layer["shard.exchange_wait_ms"] = float64(after.waitNs-before.waitNs) / ops / 1e6
	res.layer["shard.straggler_ratio"] = median(straggler)
	res.layer["shard.single_node_ms_p50"] = median(singleMs)
	res.note("fleet overhead: latency_p50_ms %.3f - single node %.3f = %.3f ms",
		median(lat), median(singleMs), median(lat)-median(singleMs))
	if e.tr.on {
		e.tr.selfTable(e.out)
		overhead(e, res, early, late)
		cov := e.tr.childCoverage(func(n string) bool { return strings.HasPrefix(n, "shard.Coordinator.Transform.") })
		res.layer["trace.coverage"] = cov
		e.printf("the coordinator's own spans cover %.2f%% of the traced Transform calls", 100*cov)
	}
	return res, nil
}
