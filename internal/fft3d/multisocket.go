package fft3d

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/fft1d"
	"repro/internal/machine"
	"repro/internal/numa"
	"repro/internal/stagegraph"
)

// DistPlan is the paper's dual-socket (general multi-socket) 3D FFT
// (§IV-B): a slab-pencil split in which every socket owns a contiguous
// z-slab, the first stage reads and writes entirely within its NUMA domain,
// and the stage-2 and stage-3 rotations implement the Table III write
// matrices W², W³ whose stores cross the QPI/HT link for the (sk-1)/sk
// fraction of the data owned by other sockets (Fig. 8).
//
// Distributed data views (sk = sockets, ksl = k/sk, mb = m/μ):
//
//	A: k×n×m cube, z-partitioned; socket s owns z ∈ [s·ksl, (s+1)·ksl).
//	B: per-socket rotated sub-cube mb × ksl × n × μ (blocks (xb, zl, y)).
//	C: (y,xb)-partitioned pillars: unit q = y·mb+xb holds k×μ contiguous;
//	   socket s owns q ∈ [s·n·mb/sk, (s+1)·n·mb/sk).
//
// Each socket compiles its slab's work into a stage graph and executes it
// through the shared stagegraph executor. Stages 1 and 2 fuse per socket —
// stage 1's rotation (W¹) is entirely NUMA-local, so socket s's stage-2
// loads depend only on socket s's own stage-1 stores and the intra-socket
// store-before-load ordering suffices. The stage-2 stores scatter across
// all sockets, so a global barrier separates them from stage 3, which runs
// as a second per-socket graph.
//
// Setting sockets = 1 reduces every write matrix to its single-socket form
// (Table III: "By setting the number of sockets equal to sk = 1, the
// implementation defaults to the single-socket implementation").
type DistPlan struct {
	k, n, m int
	sk      int
	opts    Options
	mb      int
	ksl     int // k/sk

	planM, planN, planK *fft1d.Plan

	sys  *numa.System
	bIm  *numa.Distributed     // intermediate B
	cIm  *numa.Distributed     // intermediate C
	bufs []*stagegraph.Buffers // per-socket double buffers

	rows1, units2, units3 int

	// Per-socket persistent executors and cached graphs. The fronts
	// (stages 1+2) and backs (stage 3) compile once at plan time; per call
	// only curSign/curDst and the stage-1 Src endpoints are patched.
	execs      []*stagegraph.Executor
	fronts     [][]stagegraph.Stage
	backs      [][]stagegraph.Stage
	schedFront *stagegraph.Schedule
	schedBack  *stagegraph.Schedule
	curSign    int
	curDst     *numa.Distributed

	lock   sync.Mutex // serializes Transform: bufs/bIm/cIm are shared scratch
	closed bool

	// StageTraffic records, for the most recent Transform, the local and
	// cross-interconnect bytes written by each stage.
	StageTraffic [3]TrafficStat
}

// TrafficStat is one stage's write-traffic split.
type TrafficStat struct {
	LocalBytes int64
	CrossBytes int64
}

// NewDistPlan builds a multi-socket plan. Requirements: sk ≥ 1, sk | k,
// μ | m, sk | n·(m/μ) (so the stage-2/3 ownership ranges are uniform).
func NewDistPlan(k, n, m, sockets int, opts Options) (*DistPlan, error) {
	if k < 1 || n < 1 || m < 1 {
		return nil, fmt.Errorf("fft3d: invalid size %dx%dx%d", k, n, m)
	}
	if sockets < 1 {
		return nil, fmt.Errorf("fft3d: invalid socket count %d", sockets)
	}
	opts = opts.withDefaults()
	switch opts.Radix {
	case 0, 2, 4, 8:
	default:
		return nil, fmt.Errorf("fft3d: radix must be 0, 2, 4 or 8, got %d", opts.Radix)
	}
	if opts.Mu == 0 {
		opts.Mu = machine.PreferredMu(m)
	}
	if opts.Mu < 1 {
		return nil, fmt.Errorf("fft3d: μ=%d, need ≥ 1", opts.Mu)
	}
	if m%opts.Mu != 0 {
		return nil, fmt.Errorf("fft3d: μ=%d does not divide m=%d", opts.Mu, m)
	}
	if k%sockets != 0 {
		return nil, fmt.Errorf("fft3d: sockets=%d does not divide k=%d", sockets, k)
	}
	mb := m / opts.Mu
	if (n*mb)%sockets != 0 {
		return nil, fmt.Errorf("fft3d: sockets=%d does not divide n·m/μ=%d", sockets, n*mb)
	}
	sys, err := numa.NewSystem(sockets)
	if err != nil {
		return nil, err
	}
	p := &DistPlan{
		k: k, n: n, m: m, sk: sockets, opts: opts, mb: mb, ksl: k / sockets,
		planM: fft1d.NewPlanRadix(m, opts.Radix),
		planN: fft1d.NewPlanRadix(n, opts.Radix),
		planK: fft1d.NewPlanRadix(k, opts.Radix),
		sys:   sys,
	}
	total := k * n * m
	if p.bIm, err = sys.Alloc(total); err != nil {
		return nil, err
	}
	if p.cIm, err = sys.Alloc(total); err != nil {
		return nil, err
	}
	var b int
	p.rows1, p.units2, p.units3, b = SlabUnits(k, n, m, sockets, opts.Mu, opts.BufferElems)
	p.bufs = make([]*stagegraph.Buffers, sockets)
	p.execs = make([]*stagegraph.Executor, sockets)
	p.fronts = make([][]stagegraph.Stage, sockets)
	p.backs = make([][]stagegraph.Stage, sockets)
	for s := 0; s < sockets; s++ {
		p.bufs[s] = stagegraph.NewBuffers(b, false)
		p.fronts[s], p.backs[s] = p.socketStages(s)
		exec, err := stagegraph.NewExecutor(stagegraph.Config{
			DataWorkers:    opts.DataWorkers,
			ComputeWorkers: opts.ComputeWorkers,
			ScratchComplex: b,
		})
		if err != nil {
			p.Close()
			return nil, err
		}
		p.execs[s] = exec
	}
	// Every socket's front (and back) has identical stage shapes, so one
	// compiled schedule per phase serves all sockets.
	p.schedFront = stagegraph.Compile(p.fronts[0])
	p.schedBack = stagegraph.Compile(p.backs[0])
	runtime.SetFinalizer(p, (*DistPlan).Close)
	return p, nil
}

// Close releases every socket's persistent executor workers. Idempotent
// and safe to call concurrently — with other Close calls and with a
// Transform in flight (Close waits for it; later Transforms return an
// error).
func (p *DistPlan) Close() {
	p.lock.Lock()
	defer p.lock.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, e := range p.execs {
		if e != nil {
			e.Close()
		}
	}
	runtime.SetFinalizer(p, nil)
}

// System exposes the simulated NUMA system (for traffic inspection).
func (p *DistPlan) System() *numa.System { return p.sys }

// Sockets returns the socket count.
func (p *DistPlan) Sockets() int { return p.sk }

// Alloc allocates a z-partitioned data vector compatible with the plan.
func (p *DistPlan) Alloc() (*numa.Distributed, error) {
	return p.sys.Alloc(p.k * p.n * p.m)
}

// socketStages compiles socket s's slab into its two graphs via the shared
// SlabSpec builder (also used by internal/shard's network workers). Built
// once at plan time: compute closures read the direction from p.curSign,
// the stage-3 scatter target from p.curDst, and the stage-1 Src endpoint is
// patched per Transform.
func (p *DistPlan) socketStages(s int) (front, back []stagegraph.Stage) {
	return SlabSpec{
		K: p.k, N: p.n, M: p.m, Shards: p.sk, Index: s, Mu: p.opts.Mu,
		Rows1: p.rows1, Units2: p.units2, Units3: p.units3,
		PlanM: p.planM, PlanN: p.planN, PlanK: p.planK,
		Sign:  &p.curSign,
		BBase: s * p.bIm.PartLen(),
		SrcB:  p.bIm.Part(s),
		SrcC:  p.cIm.Part(s),
		DstB: stagegraph.Endpoint{WriteC: func(off int, blk []complex128) {
			p.bIm.WriteBlock(s, off, blk)
		}},
		DstC: stagegraph.Endpoint{WriteC: func(off int, blk []complex128) {
			p.cIm.WriteBlock(s, off, blk)
		}},
		DstOut: stagegraph.Endpoint{WriteC: func(off int, blk []complex128) {
			p.curDst.WriteBlock(s, off, blk)
		}},
	}.Stages()
}

// Transform computes dst = DFT_{k×n×m}(src) over the distributed slabs.
// dst and src must come from Alloc and must be distinct.
func (p *DistPlan) Transform(dst, src *numa.Distributed, sign int) error {
	if src.Len() != p.k*p.n*p.m || dst.Len() != src.Len() {
		return fmt.Errorf("fft3d: distributed size mismatch")
	}
	p.lock.Lock()
	defer p.lock.Unlock()
	if p.closed {
		return fmt.Errorf("fft3d: plan closed")
	}
	p.sys.ResetTraffic()

	p.curSign = sign
	p.curDst = dst
	for s := 0; s < p.sk; s++ {
		p.fronts[s][0].Src.C = src.Part(s)
	}
	defer func() {
		p.curDst = nil
		for s := 0; s < p.sk; s++ {
			p.fronts[s][0].Src.C = nil
		}
	}()

	runPhase := func(graphs [][]stagegraph.Stage, sched *stagegraph.Schedule) error {
		var wg sync.WaitGroup
		errs := make([]error, p.sk)
		for s := 0; s < p.sk; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				_, errs[s] = p.execs[s].Run(p.bufs[s], graphs[s], sched, nil)
			}(s)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Phase A: stages 1+2, fused per socket. A global barrier (the phase
	// boundary) orders every socket's stage-2 scatter before any stage-3
	// load.
	if err := runPhase(p.fronts, p.schedFront); err != nil {
		return err
	}
	la, ca := p.sys.LocalBytes(), p.sys.CrossBytes()
	// Phase B: stage 3.
	if err := runPhase(p.backs, p.schedBack); err != nil {
		return err
	}
	lb, cb := p.sys.LocalBytes(), p.sys.CrossBytes()

	// Per-stage traffic attribution. Stages 1 and 2 execute in one fused
	// graph, so the counters only expose their sum — but stage 1's W¹
	// rotation is entirely local and writes every element exactly once, so
	// its contribution is known in closed form and stage 2's follows by
	// subtraction.
	stage1Local := int64(p.k*p.n*p.m) * 16
	p.StageTraffic[0] = TrafficStat{LocalBytes: stage1Local}
	p.StageTraffic[1] = TrafficStat{LocalBytes: la - stage1Local, CrossBytes: ca}
	p.StageTraffic[2] = TrafficStat{LocalBytes: lb - la, CrossBytes: cb - ca}
	return nil
}
