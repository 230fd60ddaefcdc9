// Package pipeline implements the paper's core contribution: a
// double-buffered, software-pipelined execution engine that repurposes part
// of the worker pool as soft DMA engines (data workers) which stream blocks
// between main memory and a cache-resident buffer while the remaining
// compute workers run batched FFT pencils in place on the other buffer half.
//
// The schedule is exactly the paper's Table II. With iters = knm/b blocks:
//
//	step 0        load(0)                                      prologue
//	step 1        load(1)              compute(0)
//	step s        store(s-2) load(s)   compute(s-1)            steady state
//	step iters    store(iters-2)       compute(iters-1)        epilogue
//	step iters+1  store(iters-1)
//
// Loads and stores of iteration i touch buffer half i mod 2; the compute of
// iteration i also touches half i mod 2, which at step s = i+1 is the
// opposite half from the data ops of that step. The store of iteration s-2
// precedes the load of iteration s on the same half (§III-C).
//
// The engine is callback-based and owns no buffers: callers close over
// their own buffer pair, and each hook
// partitions its index space by (worker, workers). Barriers separate steps,
// matching the paper's #pragma omp barrier usage.
package pipeline

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/affinity"
	"repro/internal/trace"
)

// Hooks are the three tasks of one FFT stage. Each is invoked once per
// (step, worker) with the iteration index, the buffer half to touch, and the
// worker's slot among its role's workers; implementations partition their
// own index space accordingly. Hooks run concurrently across workers within
// a step and must not retain buf indices across calls.
type Hooks struct {
	// Load streams block iter from main memory into buffer half buf
	// (the R_{b,i} read matrix: contiguous, non-temporal read).
	Load func(iter, buf, worker, workers int)
	// Compute applies the batched in-place pencil FFTs to buffer half buf
	// (the I_{b/m} ⊗ DFT_m kernel).
	Compute func(iter, buf, worker, workers int)
	// Store writes buffer half buf back to main memory with the blocked
	// rotation (the W_{b,i} write matrix: strided, non-temporal write).
	Store func(iter, buf, worker, workers int)
}

// Config sizes the engine.
type Config struct {
	// Iters is the number of blocks (knm/b in the paper).
	Iters int
	// DataWorkers (p_d) and ComputeWorkers (p_c).
	DataWorkers    int
	ComputeWorkers int
	// Tracer, when non-nil, records every task execution.
	Tracer *trace.Recorder
	// YieldInData injects cooperative yields into data workers between
	// steps — the analogue of the paper's NOP injection (§IV-A).
	YieldInData bool
	// LockThreads pins each worker goroutine to an OS thread.
	LockThreads bool
}

// Stats summarizes one run.
type Stats struct {
	Steps          int
	DataTime       time.Duration // summed max-per-step data-phase time
	ComputeTime    time.Duration // summed max-per-step compute-phase time
	WallTime       time.Duration
	DataWorkers    int
	ComputeWorkers int
}

func (c Config) validate() error {
	if c.Iters < 1 {
		return fmt.Errorf("pipeline: Iters=%d, need ≥ 1", c.Iters)
	}
	if c.DataWorkers < 1 || c.ComputeWorkers < 1 {
		return fmt.Errorf("pipeline: need ≥1 data and compute workers, got %d/%d",
			c.DataWorkers, c.ComputeWorkers)
	}
	return nil
}

// Run executes the Table II schedule and returns timing stats. It blocks
// until all iterations are stored.
func Run(cfg Config, h Hooks) (Stats, error) {
	if err := cfg.validate(); err != nil {
		return Stats{}, err
	}
	if h.Load == nil || h.Compute == nil || h.Store == nil {
		return Stats{}, fmt.Errorf("pipeline: all three hooks must be set")
	}

	iters := cfg.Iters
	steps := iters + 2
	total := cfg.DataWorkers + cfg.ComputeWorkers
	// Data workers order store-before-load among themselves (their
	// partitions of the shared half differ between the two ops); compute
	// workers must not wait on that ordering or the store phase would
	// serialize against computation and break the overlap.
	dataBar := NewBarrier(cfg.DataWorkers)
	stepBar := NewBarrier(total)

	// Per-step phase durations, written by worker 0 of each role.
	dataDur := make([]time.Duration, steps)
	compDur := make([]time.Duration, steps)

	start := time.Now()
	done := make(chan struct{}, total)

	// A panic in any hook poisons both barriers so every worker unblocks
	// and exits, and Run returns it as an error instead of deadlocking.
	var panicOnce sync.Once
	var panicErr error

	runWorker := func(role affinity.Role, slot, workers int) {
		body := func() {
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() {
						panicErr = fmt.Errorf("pipeline: %s worker %d panicked: %v",
							role, slot, r)
					})
					dataBar.Abort()
					stepBar.Abort()
				}
				done <- struct{}{}
			}()
			for s := 0; s < steps; s++ {
				t0 := time.Now()
				if role == affinity.DataRole {
					// Store of iteration s-2 must precede the load of
					// iteration s: they share buffer half s mod 2.
					if si := s - 2; si >= 0 && si < iters {
						t := time.Now()
						h.Store(si, si%2, slot, workers)
						cfg.Tracer.Emit(trace.Event{
							Op: trace.Store, Step: s, Iter: si, Buf: si % 2,
							Worker: slot, Role: "data", Start: t, End: time.Now(),
						})
					}
					// Data workers must agree the store finished before
					// any of them overwrites the half with the new load.
					if !dataBar.Wait() {
						return
					}
					if s < iters {
						t := time.Now()
						h.Load(s, s%2, slot, workers)
						cfg.Tracer.Emit(trace.Event{
							Op: trace.Load, Step: s, Iter: s, Buf: s % 2,
							Worker: slot, Role: "data", Start: t, End: time.Now(),
						})
					}
					if cfg.YieldInData {
						affinity.Yield()
					}
					if slot == 0 {
						dataDur[s] = time.Since(t0)
					}
				} else {
					if ci := s - 1; ci >= 0 && ci < iters {
						t := time.Now()
						h.Compute(ci, ci%2, slot, workers)
						cfg.Tracer.Emit(trace.Event{
							Op: trace.Compute, Step: s, Iter: ci, Buf: ci % 2,
							Worker: slot, Role: "compute", Start: t, End: time.Now(),
						})
					}
					if slot == 0 {
						compDur[s] = time.Since(t0)
					}
				}
				// End-of-step barrier: nobody proceeds to step s+1 until
				// the loads and computes of step s completed.
				if !stepBar.Wait() {
					return
				}
			}
		}
		if cfg.LockThreads {
			affinity.Pin(body)
		} else {
			body()
		}
	}

	for w := 0; w < cfg.DataWorkers; w++ {
		go runWorker(affinity.DataRole, w, cfg.DataWorkers)
	}
	for w := 0; w < cfg.ComputeWorkers; w++ {
		go runWorker(affinity.ComputeRole, w, cfg.ComputeWorkers)
	}
	for i := 0; i < total; i++ {
		<-done
	}
	if panicErr != nil {
		return Stats{}, panicErr
	}

	st := Stats{
		Steps:          steps,
		WallTime:       time.Since(start),
		DataWorkers:    cfg.DataWorkers,
		ComputeWorkers: cfg.ComputeWorkers,
	}
	for s := 0; s < steps; s++ {
		st.DataTime += dataDur[s]
		st.ComputeTime += compDur[s]
	}
	return st, nil
}

// RunSequential executes the same hooks without any overlap: for each
// iteration it loads, computes, then stores, using every worker for each
// phase. This is the ablation baseline ("same thread budget, no software
// pipelining") for BenchmarkOverlapOnOff.
func RunSequential(cfg Config, h Hooks) (Stats, error) {
	if err := cfg.validate(); err != nil {
		return Stats{}, err
	}
	if h.Load == nil || h.Compute == nil || h.Store == nil {
		return Stats{}, fmt.Errorf("pipeline: all three hooks must be set")
	}
	total := cfg.DataWorkers + cfg.ComputeWorkers
	start := time.Now()
	var dataTime, compTime time.Duration

	var panicOnce sync.Once
	var panicErr error
	parallel := func(f func(worker, workers int)) {
		ch := make(chan struct{}, total)
		for w := 0; w < total; w++ {
			go func(w int) {
				defer func() {
					if r := recover(); r != nil {
						panicOnce.Do(func() {
							panicErr = fmt.Errorf("pipeline: sequential worker %d panicked: %v", w, r)
						})
					}
					ch <- struct{}{}
				}()
				f(w, total)
			}(w)
		}
		for i := 0; i < total; i++ {
			<-ch
		}
	}

	for i := 0; i < cfg.Iters; i++ {
		buf := i % 2
		t0 := time.Now()
		parallel(func(w, ws int) { h.Load(i, buf, w, ws) })
		t1 := time.Now()
		parallel(func(w, ws int) { h.Compute(i, buf, w, ws) })
		t2 := time.Now()
		parallel(func(w, ws int) { h.Store(i, buf, w, ws) })
		dataTime += t1.Sub(t0) + time.Since(t2)
		compTime += t2.Sub(t1)
		if panicErr != nil {
			return Stats{}, panicErr
		}
	}
	return Stats{
		Steps:          cfg.Iters,
		WallTime:       time.Since(start),
		DataTime:       dataTime,
		ComputeTime:    compTime,
		DataWorkers:    cfg.DataWorkers,
		ComputeWorkers: cfg.ComputeWorkers,
	}, nil
}
