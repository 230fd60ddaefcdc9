package main

import (
	"fmt"
	"runtime"
	"time"
)

// httpConns is the connection count of both HTTP workloads: two, or fewer
// on a host with fewer CPUs.
var httpConns = min(2, runtime.NumCPU())

const (
	setupRepsHTTP = 21 // fftserved boots per run; setup_s is their median

	pool2DSize = 4
	dims2D     = 256

	replay2D = 12
	replay1D = 600
)

// runHTTP2D drives the http-2d-json workload: a closed loop of two
// keep-alive connections, each POSTing 256² complex JSON transforms,
// alternating forward and inverse over a seeded pool.
func runHTTP2D(e *env) (*result, error) {
	n := dims2D * dims2D
	dims := [3]int{dims2D, dims2D}
	var fwd, inv []*item
	for _, x := range pool2D(e.seed, pool2DSize, n) {
		X := dft2(x, dims2D, dims2D, -1)
		fwd = append(fwd, newItem(2, dims, false, false, x, X))
		inv = append(inv, newItem(2, dims, true, false, X, x))
	}
	orders := make([][]int, httpConns)
	for c := range orders {
		orders[c] = closedOrder(e.seed, c, pool2DSize, 1<<16)
	}
	next := func(conn, i int) *item {
		p := orders[conn][i%len(orders[conn])]
		if i%2 == 0 {
			return fwd[p]
		}
		return inv[p]
	}
	warm := append(append([]*item(nil), fwd...), inv...)
	var sample []*item
	r := newRNG(e.seed, "replay-2d")
	for i := 0; i < replay2D; i++ {
		sample = append(sample, warm[r.intn(len(warm))])
	}
	return runHTTP(e, warm, sample, next)
}

// runHTTP1D drives the http-1d-mix workload: a closed loop of two
// keep-alive connections, each POSTing its own seeded sequence of small
// 1D transforms.
func runHTTP1D(e *env) (*result, error) {
	items := make(map[mixReq]*item)
	var warm []*item
	for _, k := range mixKeys() {
		x := mixInput(e.seed, k)
		X := dft(x, -1)
		dims := [3]int{k.N}
		fwd, inv := mixReq{k, false}, mixReq{k, true}
		if k.Real {
			half := X[:k.N/2+1]
			items[fwd] = newItem(1, dims, false, true, x, half)
			items[inv] = newItem(1, dims, true, true, half, x)
		} else {
			items[fwd] = newItem(1, dims, false, false, x, X)
			items[inv] = newItem(1, dims, true, false, X, x)
		}
		// Warm only the hot head of the Zipf mix, so cache misses in the
		// timed phase are the tail's own.
		if k.N == mixLengths[0] || k.N == mixLengths[1] {
			warm = append(warm, items[fwd], items[inv])
		}
	}
	orders := make([][]mixReq, httpConns)
	for c := range orders {
		orders[c] = mixOrder(e.seed, c, 1<<16)
	}
	next := func(conn, i int) *item {
		return items[orders[conn][i%len(orders[conn])]]
	}
	var sample []*item
	r := newRNG(e.seed, "replay-1d")
	for i := 0; i < replay1D; i++ {
		sample = append(sample, next(0, r.intn(len(orders[0]))))
	}
	return runHTTP(e, warm, sample, next)
}

// runHTTP boots fftserved, warms it with each warm item once, runs the
// closed loop of next over httpConns connections with its telemetry
// scraped around it, replays the sample when tracing, and stops fftserved
// through the clean-drain check.
func runHTTP(e *env, warm, sample []*item, next func(conn, i int) *item) (*result, error) {
	srv, setups, err := bootServer(e.fftserved, setupRepsHTTP)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	e.printf("fftserved: %s (pid %d)", srv.commandLine(), srv.pid())
	c := newClient(httpConns)
	defer c.CloseIdleConnections()
	url := srv.base + "/transform"
	res := newResult()

	warmT := &tally{}
	for _, it := range warm {
		send(nil, c, url, it, 0, warmT)
	}
	res.count(warmT)

	before, err := srv.scrape(c)
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	start := time.Now()
	t := closedLoop(c, url, httpConns, e.seconds, e.tr, next)
	elapsed := t.lastEnd.Sub(start)
	genCPU := selfCPU() - gen0
	after, err := srv.scrape(c)
	if err != nil {
		return nil, err
	}
	res.count(t)
	peak, err := vmHWMMiB(srv.pid())
	if err != nil {
		return nil, err
	}

	okOps := float64(len(t.lat))
	tailV, tailP := tail(t.lat)
	res.e2e["setup_s"] = median(setups)
	res.e2e["ops_per_s"] = okOps / elapsed.Seconds()
	res.e2e["latency_p50_ms"] = median(t.lat)
	res.e2e["latency_tail_ms"] = tailV
	res.e2e["peak_rss_mib"] = peak
	res.note("latency_tail_ms is p%.2f of %d verified requests", tailP, len(t.lat))
	res.note("setup_s: fftserved exec to first /healthz 200, median of %d boots %v", len(setups), fmtSeconds(setups))

	reqs := float64(t.attempted)
	ds, da := before.snap, after.snap
	hits, misses := da.Cache.Hits-ds.Cache.Hits, da.Cache.Misses-ds.Cache.Misses
	res.layer["fftserved.cpu_ms_per_req"] = ms(after.cpu-before.cpu) / reqs
	res.layer["fftserved.req_kib"] = float64(t.reqBytes) / reqs / 1024
	res.layer["fftserved.resp_kib"] = float64(t.respBytes) / reqs / 1024
	res.layer["serve.server_p50_ms"] = 1e3 * histQuantile(before.hist, after.hist, 0.5)
	if b := da.Batches - ds.Batches; b > 0 {
		res.layer["serve.avg_batch"] = float64(da.BatchedItems-ds.BatchedItems) / float64(b)
	}
	res.layer["serve.rejected"] = float64(da.Rejected - ds.Rejected)
	if hits+misses > 0 {
		res.layer["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	res.layer["serve.cache_evictions"] = float64(da.Cache.Evictions - ds.Cache.Evictions)
	res.layer["gen.cpu_ms_per_req"] = ms(genCPU) / reqs
	res.note("server counters over the timed phase: %d submitted, %d cache hits, %d misses, %d evictions",
		da.Submitted-ds.Submitted, hits, misses, da.Cache.Evictions-ds.Cache.Evictions)

	if e.tr.on {
		e.tr.selfTable(e.out)
		res.layer["trace.overhead_ms"] = median(t.lateHalf) - median(t.earlyHalf)
		rt := &tracer{on: true}
		cpu0, err := procCPU(srv.pid())
		if err != nil {
			return nil, err
		}
		times := replay(c, url, sample, rt, res)
		cpu1, err := procCPU(srv.pid())
		if err != nil {
			return nil, err
		}
		replayLayers(e, res, times, cpu1-cpu0)
		e.saveTrace(rt, "replay")
	}

	if err := srv.stop(); err != nil {
		res.fail(fmt.Errorf("fftserved shutdown: %w", err))
	}
	return res, nil
}

// replayLayers derives the fftserved, serve, lru and engine figures from
// the replayed sample and prints the nested decomposition of the HTTP
// time: fftserved = HTTP − Do, serve = Do − Get − Execute, then Get and
// Execute themselves. That split holds by subtraction, so it cannot show
// a gap; trace.coverage can: fftserved's own CPU time over the replay (the
// server is idle between its HTTP steps) as a share of the HTTP time.
func replayLayers(e *env, res *result, times []replayTimes, serverCPU time.Duration) {
	var httpT, selfF, selfS, doExec, lru, engine, build, execC, execR latencies
	for _, t := range times {
		httpT.add(t.HTTP)
		selfF.add(t.HTTP - t.Do)
		selfS.add(t.Do - t.Get - t.Exec)
		doExec.add(t.Do - t.Exec)
		lru.add(t.Get)
		engine.add(t.Exec)
		if t.Miss {
			build.add(t.Get)
		}
		if t.Real {
			execR.add(t.Exec)
		} else {
			execC.add(t.Exec)
		}
	}
	res.layer["fftserved.self_ms_p50"] = median(selfF)
	res.layer["serve.self_us_p50"] = 1e3 * median(doExec)
	res.layer["serve.plan_build_ms_p50"] = median(build)
	res.layer["serve.exec_us_p50.complex"] = 1e3 * median(execC)
	res.layer["serve.exec_us_p50.real"] = 1e3 * median(execR)
	total := mean(httpT)
	e.printf("replay of %d sampled requests, mean HTTP time %.3f ms, nested by subtraction:", len(times), total)
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"fftserved (HTTP - serve.Server.Do)", mean(selfF)},
		{"serve (Do - PlanCache.Get - Plan.Execute)", mean(selfS)},
		{"lru (PlanCache.Get)", mean(lru)},
		{"engine (Plan.Execute/ExecuteReal)", mean(engine)},
	} {
		e.printf("  %-44s %10.4f ms %6.2f%%", row.name, row.v, 100*row.v/total)
	}
	e.printf("  %d plan-cache misses in the replay", len(build))
	cov := ms(serverCPU) / sum(httpT)
	res.layer["trace.coverage"] = cov
	e.printf("fftserved CPU time covers %.2f%% of the replayed HTTP time; the rest is the client, loopback and wake-ups", 100*cov)
}
