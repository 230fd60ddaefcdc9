package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/fft1d"
	"repro/internal/layout"
	"repro/internal/stream"
)

// oocPlan is what the out-of-cache workloads call on a 2D or 3D plan.
type oocPlan interface {
	Forward(dst, src []complex128) error
	Inverse(dst, src []complex128) error
	Observability() repro.Observability
	Close()
}

// oocShape is one out-of-cache transform: 2²⁴ complex values, 256 MiB.
type oocShape struct {
	name   string   // metric prefix: fft3d or fft2d
	dims   []int    // slowest first
	stages []string // metric names of the executor's stages, in order
	build  func() (oocPlan, error)
}

var (
	shape3D = oocShape{"fft3d", []int{256, 256, 256}, []string{"x", "y", "z"},
		func() (oocPlan, error) { return repro.NewFFT3D(256, 256, 256) }}
	shape2D = oocShape{"fft2d", []int{4096, 4096}, []string{"rows", "cols"},
		func() (oocPlan, error) { return repro.NewFFT2D(4096, 4096) }}
)

const (
	setupRepsOOC = 3 // set-ups per run; setup_s is their median
	spotCount    = 4 // reference bins per forward output (DC + 3 seeded)
	streamTrial  = 3
)

// stageAcc is one stage's share of a stageTotals.
type stageAcc struct{ dataNs, computeNs, loadNs, storeNs, loadB, storeB float64 }

// stageTotals accumulates a plan's Observability deltas over traced
// calls.
type stageTotals struct {
	stages []stageAcc
	calls  int

	dataWorkers                         int
	wallNs, barrierNs, steps, busySteps float64
}

func (t *stageTotals) add(before, after repro.Observability, wall time.Duration) {
	if t.stages == nil {
		t.stages = make([]stageAcc, len(after.Stages))
	}
	for s := range t.stages {
		a, b, acc := after.Stages[s], before.Stages[s], &t.stages[s]
		acc.loadNs += float64(a.Load.Ns - b.Load.Ns)
		acc.storeNs += float64(a.Store.Ns - b.Store.Ns)
		acc.loadB += float64(a.Load.Bytes - b.Load.Bytes)
		acc.storeB += float64(a.Store.Bytes - b.Store.Bytes)
		acc.dataNs += float64(a.Load.Ns+a.Store.Ns-b.Load.Ns-b.Store.Ns) / float64(after.DataWorkers)
		acc.computeNs += float64(a.ComputeNs-b.ComputeNs) / float64(after.ComputeWorkers)
	}
	t.calls++
	t.dataWorkers = after.DataWorkers
	t.wallNs += float64(wall.Nanoseconds())
	t.barrierNs += float64(after.BarrierWaitNs-before.BarrierWaitNs) / float64(after.DataWorkers+after.ComputeWorkers)
	t.steps += float64(after.Steps - before.Steps)
	t.busySteps += float64(after.BothBusySteps - before.BothBusySteps)
}

// report sets the stagegraph per-layer metrics of shape sh: per stage the
// mean per-worker data and compute seconds per call and the load and store
// bandwidth; per shape the barrier share, the scheduled overlap and the
// share of wall time no stage's data or compute time covers.
func (t *stageTotals) report(res *result, sh oocShape) {
	if t.calls == 0 || len(t.stages) != len(sh.stages) {
		return
	}
	calls, dw := float64(t.calls), float64(t.dataWorkers)
	for s, name := range sh.stages {
		a := t.stages[s]
		pre := "stagegraph." + sh.name + "." + name
		res.layer[pre+".data_s"] = a.dataNs / calls / 1e9
		res.layer[pre+".compute_s"] = a.computeNs / calls / 1e9
		if a.loadNs > 0 {
			res.layer[pre+".load_gbps"] = a.loadB * dw / a.loadNs
		}
		if a.storeNs > 0 {
			res.layer[pre+".store_gbps"] = a.storeB * dw / a.storeNs
		}
	}
	pre := "stagegraph." + sh.name
	res.layer[pre+".barrier_share"] = t.barrierNs / t.wallNs
	res.layer[pre+".overlap_sched"] = t.busySteps / t.steps
	res.layer[pre+".unattributed_share"] = max(0, 1-t.attributedShare())
}

// attributedShare returns the share of the traced calls' wall time that
// the executor's own stage counters account for: per stage the longer of
// its per-worker data and compute time, summed over the stages.
func (t *stageTotals) attributedShare() float64 {
	if t.wallNs == 0 {
		return 0
	}
	var attributed float64
	for _, a := range t.stages {
		attributed += max(a.dataNs, a.computeNs)
	}
	return attributed / t.wallNs
}

// runOOC drives an ooc-fft workload: one caller alternating Forward and
// Inverse of one out-of-cache plan on seeded data. Every forward output is
// checked at the reference bins and every inverse output against the
// original input (the round trip), outside the timed calls.
func runOOC(e *env, sh oocShape) (*result, error) {
	n := 1
	for _, d := range sh.dims {
		n *= d
	}
	dataset := int64(n) * 16
	streamElems := int((4*e.host.LLC + 7) / 8)
	streamBytes := int64(streamElems) * 8
	e.printf("regime: dataset %.0f MiB = %.2f x LLC; STREAM arrays 3 x %.0f MiB, each %.2f x LLC",
		float64(dataset)/(1<<20), float64(dataset)/float64(e.host.LLC),
		float64(streamBytes)/(1<<20), float64(streamBytes)/float64(e.host.LLC))
	if dataset < 2*e.host.LLC || streamBytes < 4*e.host.LLC {
		return nil, fmt.Errorf("regime guard: dataset %d B must be ≥ 2 x LLC and STREAM arrays %d B ≥ 4 x LLC (LLC %d B)",
			dataset, streamBytes, e.host.LLC)
	}
	res := newResult()

	r := newRNG(e.seed, "ooc-"+sh.name)
	x := randomComplex(r, n)
	xn := norm2(x)
	spots := spotBins(r, x, sh.dims, spotCount)

	var streamBefore float64
	if e.tr.on {
		streamBefore = streamCopy(streamElems)
	}
	// Touch the output buffers now: their first-touch page faults belong
	// to the caller's allocation, not to any transform.
	X := append([]complex128(nil), x...)
	y := append([]complex128(nil), x...)

	var setups, builds []float64
	var p oocPlan
	for rep := 0; rep < setupRepsOOC; rep++ {
		if p != nil {
			// Collect the previous plan so every set-up starts from the
			// same heap and peak_rss_mib reflects one live plan.
			p.Close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if p, err = sh.build(); err != nil {
			return nil, err
		}
		builds = append(builds, ms(time.Since(t0)))
		err = p.Forward(X, x)
		setups = append(setups, time.Since(t0).Seconds())
		if err == nil {
			err = checkSpots(X, spots, xn)
		}
		res.op(err)
	}
	defer p.Close()
	res.note("setup_s: plan construction plus one warm-up forward, median of %d %v", len(setups), fmtSeconds(setups))

	var lat latencies
	var early, late [2]latencies // by direction: forward, inverse
	var totals stageTotals
	fwdName := "repro." + sh.name + ".Forward"
	invName := "repro." + sh.name + ".Inverse"
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
		var before repro.Observability
		if traced {
			before = p.Observability()
		}
		name := fwdName
		if dir == 1 {
			name = invName
		}
		var root, child int
		if traced {
			root = e.tr.begin("bench.op", 0, i+1)
			child = e.tr.begin(name, root, i+1)
		}
		t0 := time.Now()
		var err error
		if dir == 0 {
			err = p.Forward(X, x)
		} else {
			err = p.Inverse(y, X)
		}
		d := time.Since(t0)
		e.tr.end(child)
		e.tr.end(root)
		if traced {
			totals.add(before, p.Observability(), d)
		}
		if err == nil {
			if dir == 0 {
				err = checkSpots(X, spots, xn)
			} else {
				err = checkClose(y, x)
			}
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

	p50 := median(lat)
	tailV, tailP := tail(lat)
	res.e2e["setup_s"] = median(setups)
	res.e2e["ops_per_s"] = 1e3 * float64(len(lat)) / sum(lat)
	res.e2e["latency_p50_ms"] = p50
	res.e2e["latency_tail_ms"] = tailV
	peak, err := vmHWMMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.e2e["peak_rss_mib"] = peak
	res.note("%s_p50_ms = %.3f (latency_p50_ms of this workload); latency_tail_ms is p%.2f of %d transforms",
		sh.name, p50, tailP, len(lat))

	res.layer["core.plan_build_ms."+sh.name] = median(builds)
	if e.tr.on {
		e.tr.selfTable(e.out)
		overhead(e, res, early, late)
		totals.report(res, sh)
		cov := totals.attributedShare()
		res.layer["trace.coverage"] = cov
		e.printf("the executor's stage counters account for %.2f%% of the traced %s calls", 100*cov, sh.name)
		ceilings(res, sh, X, y)
		x, X, y = nil, nil, nil
		runtime.GC()
		debug.FreeOSMemory()
		streamAfter := streamCopy(streamElems)
		copyGBs := (streamBefore + streamAfter) / 2
		res.layer["stream.copy_gbps.before"] = streamBefore
		res.layer["stream.copy_gbps.after"] = streamAfter
		res.layer["stream.copy_gbps"] = copyGBs
		computed := float64(len(sh.stages)) * 32 * float64(n)
		res.layer[sh.name+".frac_stream"] = computed / (p50 / 1e3) / 1e9 / copyGBs
		e.printf("%s computed traffic %d stages x 32 B x N = %.0f MiB per transform; %.2f GB/s at the median, STREAM copy %.2f GB/s",
			sh.name, len(sh.stages), computed/(1<<20), computed/(p50/1e3)/1e9, copyGBs)
	}
	return res, nil
}

// overhead sets trace.overhead_ms of a traced forward/inverse loop.
func overhead(e *env, res *result, untraced, traced [2]latencies) {
	d, ok := pairedOverhead(untraced, traced)
	if !ok {
		e.printf("trace.overhead_ms not measured: a half of the timed phase lacks a forward or an inverse")
		return
	}
	res.layer["trace.overhead_ms"] = d
	e.printf("trace.overhead_ms from %d+%d untraced and %d+%d traced forward+inverse calls",
		len(untraced[0]), len(untraced[1]), len(traced[0]), len(traced[1]))
}

// streamCopy measures STREAM copy bandwidth over arrays of elems float64
// each, then returns the arrays' memory to the OS.
func streamCopy(elems int) float64 {
	gbs := stream.Run(stream.Config{Elems: elems, Trials: streamTrial})[0].BestGBs
	runtime.GC()
	debug.FreeOSMemory()
	return gbs
}

// ceilings measures standalone bandwidth for each pipeline leg at the
// workload's shape: the blocked rotation or transpose over the whole
// out-of-cache array, and a batch of 1D pencils filling one pipeline
// block. Traffic counts one read and one write of every element.
func ceilings(res *result, sh oocShape, a, b []complex128) {
	cfg := core.Default()
	mu := cfg.Mu
	bytes := float64(32 * len(a))
	best := func(reps int, f func()) float64 {
		var b time.Duration
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			f()
			if d := time.Since(t0); i == 0 || d < b {
				b = d
			}
		}
		return b.Seconds()
	}
	last := sh.dims[len(sh.dims)-1]
	if len(sh.dims) == 3 {
		k, nn := sh.dims[0], sh.dims[1]
		res.layer["layout.rotate3d_gbps"] = bytes / best(2, func() { layout.Rotate3DBlocked(b, a, k, nn, last/mu, mu) }) / 1e9
	} else {
		rows := sh.dims[0]
		res.layer["layout.transpose_gbps"] = bytes / best(2, func() { layout.TransposeBlocked(b, a, rows, last/mu, mu) }) / 1e9
	}
	block := cfg.BufferElems
	count := block / last
	plan := fft1d.NewPlan(last)
	buf := a[:count*last]
	reps := 0
	t0 := time.Now()
	for time.Since(t0) < 300*time.Millisecond {
		plan.Batch(buf, count, fft1d.Forward)
		reps++
	}
	res.layer["fft1d.batch_gbps"] = 32 * float64(count*last) * float64(reps) / time.Since(t0).Seconds() / 1e9
}
