// Command fftserved serves FFT transforms over HTTP on top of the batched,
// backpressured serving layer (internal/serve): requests of any rank share
// a bounded plan cache, same-shape 1D requests coalesce into single batched
// pencil executions, and shutdown drains in-flight work before exiting.
//
// Endpoints:
//
//	POST /transform     {"rank":1,"dims":[4096],"inverse":false,"data":[re,im,...]}
//	                    → {"data":[re,im,...]}
//	GET  /metrics       Prometheus text exposition: request counters, latency
//	                    histogram, queue/cache gauges, and per-plan per-stage
//	                    bandwidth vs. the roofline
//	GET  /metrics.json  the same counters as a JSON snapshot
//	GET  /healthz       200 while serving, 503 once draining
//	GET  /debug/pprof/  Go profiling endpoints (only with -pprof)
//
// Complex data crosses the wire as interleaved re,im float64 pairs, so a
// rank-r request carries 2·∏dims numbers. Setting "real":true selects the
// real-input (r2c/c2r) pipeline: dims describe the real grid (last dim
// even), a forward request carries ∏dims plain reals and returns the
// Hermitian half spectrum (last dim n/2+1) as interleaved pairs, and an
// inverse request carries the half spectrum and returns ∏dims reals.
//
// The roofline the per-stage bandwidth gauges are normalized against comes
// from -roofline (GB/s), or from -machine (a paper machine's published
// STREAM figure), or — when neither is given — from a quick STREAM copy
// measurement at startup.
//
// The -selftest N mode starts the server on a loopback port, fires N
// concurrent mixed-shape requests at it, verifies round trips, the
// /healthz endpoint and both metric surfaces (the Prometheus text must
// parse cleanly and carry finite per-stage bandwidth gauges), then drains
// and exits — the `make servesmoke` and `make obssmoke` targets.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/trace"
)

// buildInfo identifies this binary in /metrics (fft_build_info) and in the
// fleet exposition: version, vcs commit, compiled kernel tier, GOMAXPROCS.
var buildInfo = obs.ReadBuildInfo(kernels.Tier())

func main() {
	var (
		addr        = flag.String("addr", ":8123", "HTTP listen address")
		queue       = flag.Int("queue", 256, "submit queue depth")
		maxBatch    = flag.Int("maxbatch", 16, "max same-shape 1D requests coalesced per execution (1 disables)")
		window      = flag.Duration("window", 200*time.Microsecond, "batching window: how long to linger for a deeper batch")
		executors   = flag.Int("executors", 2, "concurrent batch executors")
		cacheCap    = flag.Int("cachecap", 32, "plan cache capacity")
		policy      = flag.String("policy", "block", "full-queue policy: block or reject")
		machineName = flag.String("machine", "", "paper machine whose STREAM peak normalizes the bandwidth gauges (substring match, e.g. \"7700k\")")
		roofline    = flag.Float64("roofline", 0, "STREAM peak in GB/s for the bandwidth gauges (0 = measure at startup, or take it from -machine)")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		selftest    = flag.Int("selftest", 0, "fire N concurrent smoke requests at a loopback instance and exit")

		shardWorkerOn = flag.Bool("shardworker", false, "serve distributed shard worker endpoints under /shard/")
		peers         = flag.String("peers", "", "comma-separated worker base URLs; enables coordinator mode for sharded /transform requests")
		shardSelftest = flag.Int("shardselftest", 0, "boot a loopback shard cluster, round-trip an N³ cube sharded vs single-node, validate /metrics, and exit")

		logFormat     = flag.String("logformat", "text", "structured log format: text or json")
		logLevel      = flag.String("loglevel", "info", "log level: debug, info, warn or error")
		flightrecCap  = flag.Int("flightrec", 64, "flight recorder depth: last N requests under /debug/flightrec (0 disables)")
		traceSelftest = flag.Bool("traceselftest", false, "boot a loopback 3-worker cluster, run a traced sharded transform, validate the merged Perfetto timeline, /metrics/fleet and /debug/flightrec, and exit")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		log.Fatalf("fftserved: %v", err)
	}

	var pol serve.Policy
	switch *policy {
	case "block":
		pol = serve.Block
	case "reject":
		pol = serve.Reject
	default:
		log.Fatalf("fftserved: -policy must be block or reject, got %q", *policy)
	}

	cfg := core.Default()
	if *machineName != "" {
		m, err := machine.Lookup(*machineName)
		if err != nil {
			log.Fatalf("fftserved: %v", err)
		}
		cfg.MachineName = m.Name
		cfg.RooflineGBs = m.StreamGBs
	}
	if *roofline > 0 {
		cfg.RooflineGBs = *roofline
	}
	if cfg.RooflineGBs == 0 {
		// One quick STREAM copy pass so FracPeak gauges are meaningful out
		// of the box; -roofline skips this for reproducible normalization.
		cfg.RooflineGBs = stream.BestCopyGBs(stream.Config{Elems: 1 << 20, Trials: 1})
		log.Printf("fftserved: measured STREAM copy roofline %.1f GB/s", cfg.RooflineGBs)
	}

	if *shardSelftest > 0 {
		if err := runShardSelftest(cfg, *shardSelftest); err != nil {
			log.Fatalf("fftserved: shard selftest failed: %v", err)
		}
		fmt.Println("fftserved: shard selftest ok")
		return
	}
	if *traceSelftest {
		if err := runTraceSelftest(cfg); err != nil {
			log.Fatalf("fftserved: trace selftest failed: %v", err)
		}
		fmt.Println("fftserved: trace selftest ok")
		return
	}

	// Coordinator mode: sharded /transform requests fan out across the
	// worker fleet named by -peers. The same peer list feeds the
	// /metrics/fleet aggregation.
	var runner serve.ShardRunner
	var coord *shard.Coordinator
	var fleetPeers []string
	if *peers != "" {
		nodes := strings.Split(*peers, ",")
		for i := range nodes {
			nodes[i] = strings.TrimSpace(nodes[i])
		}
		var err error
		coord, err = shard.NewCoordinator(shard.CoordinatorOptions{Nodes: nodes, Logger: logger})
		if err != nil {
			log.Fatalf("fftserved: %v", err)
		}
		runner = coordRunner{coord}
		fleetPeers = nodes
		log.Printf("fftserved: coordinating %d shard workers", len(nodes))
	}

	s := serve.New(serve.Options{
		Config:        cfg,
		QueueDepth:    *queue,
		MaxBatch:      *maxBatch,
		BatchWindow:   *window,
		Executors:     *executors,
		CacheCapacity: *cacheCap,
		Policy:        pol,
		ShardRunner:   runner,
		Logger:        logger,
	})
	h := &handler{s: s, pprof: *pprofOn, coord: coord, fleetPeers: fleetPeers}
	if *flightrecCap > 0 {
		h.flight = flightrec.New(*flightrecCap)
	}
	if *shardWorkerOn {
		h.worker = shard.NewWorker(shard.WorkerOptions{Logger: logger})
		log.Print("fftserved: shard worker endpoints mounted under /shard/")
	}

	if *selftest > 0 {
		if err := runSelftest(h, *selftest); err != nil {
			log.Fatalf("fftserved: selftest failed: %v", err)
		}
		fmt.Println("fftserved: selftest ok")
		return
	}

	httpSrv := &http.Server{Addr: *addr, Handler: h.mux()}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("fftserved: draining")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		// Drain order matters for the shard tier: /healthz flips to 503
		// immediately (both drain flags), but HTTP must keep answering
		// until the last in-flight exchange chunk settles — a worker
		// receives exchange traffic over this very listener. Only then
		// does the HTTP server itself shut down.
		if h.worker != nil {
			h.worker.BeginDrain()
		}
		if err := s.Shutdown(ctx); err != nil {
			log.Printf("fftserved: drain: %v", err)
		}
		if h.worker != nil {
			if err := h.worker.Drain(ctx); err != nil {
				log.Printf("fftserved: shard drain: %v", err)
			}
			h.worker.Close()
		}
		_ = httpSrv.Shutdown(ctx)
	}()
	log.Printf("fftserved: listening on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("fftserved: %v", err)
	}
}

// buildLogger maps the -logformat/-loglevel flags to a slog.Logger.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("-loglevel must be debug, info, warn or error, got %q", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("-logformat must be text or json, got %q", format)
}

type handler struct {
	s          *serve.Server
	worker     *shard.Worker      // non-nil when -shardworker mounts /shard/
	coord      *shard.Coordinator // non-nil in coordinator mode (-peers)
	flight     *flightrec.Recorder
	fleetPeers []string // worker base URLs scraped by /metrics/fleet
	pprof      bool
}

func (h *handler) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/transform", h.transform)
	mux.HandleFunc("/metrics", h.metrics)
	mux.HandleFunc("/metrics/fleet", h.metricsFleet)
	mux.HandleFunc("/metrics.json", h.metricsJSON)
	mux.HandleFunc("/healthz", h.healthz)
	mux.HandleFunc("/debug/trace/", h.debugTrace)
	if h.flight != nil {
		mux.Handle("/debug/flightrec", h.flight)
	}
	if h.worker != nil {
		mux.Handle("/shard/", h.worker.Handler())
	}
	if h.pprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	return mux
}

// transformRequest is the wire format of one transform. Data holds
// interleaved re,im pairs on every complex side, and plain reals on the
// real side of a real-input transform (forward input, inverse output).
type transformRequest struct {
	Rank    int       `json:"rank"`
	Dims    []int     `json:"dims"`
	Inverse bool      `json:"inverse"`
	Real    bool      `json:"real,omitempty"`
	Sharded bool      `json:"sharded,omitempty"`
	Data    []float64 `json:"data"`
}

type transformResponse struct {
	Data []float64 `json:"data"`
}

func (h *handler) transform(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var treq transformRequest
	if err := json.NewDecoder(r.Body).Decode(&treq); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	if treq.Rank < 1 || treq.Rank > 3 || len(treq.Dims) != treq.Rank {
		http.Error(w, fmt.Sprintf("rank %d needs exactly %d dims, got %d",
			treq.Rank, treq.Rank, len(treq.Dims)), http.StatusBadRequest)
		return
	}
	n, err := machine.AdmitElems(treq.Dims)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var dims [3]int
	copy(dims[:], treq.Dims)
	req := serve.Request{Rank: treq.Rank, Dims: dims, Inverse: treq.Inverse, Real: treq.Real, Sharded: treq.Sharded}
	var encode func() []float64
	switch {
	case treq.Real && !treq.Inverse:
		if len(treq.Data) != n {
			http.Error(w, fmt.Sprintf("want %d real values for %v, got %d",
				n, treq.Dims, len(treq.Data)), http.StatusBadRequest)
			return
		}
		spec := specLen(dims, treq.Rank, n)
		req.RealSrc = treq.Data
		req.Dst = make([]complex128, spec)
		encode = func() []float64 { return interleave(req.Dst) }
	case treq.Real:
		spec := specLen(dims, treq.Rank, n)
		if len(treq.Data) != 2*spec {
			http.Error(w, fmt.Sprintf("want %d interleaved re,im half-spectrum values for %v, got %d",
				2*spec, treq.Dims, len(treq.Data)), http.StatusBadRequest)
			return
		}
		req.Src = deinterleave(treq.Data)
		req.RealDst = make([]float64, n)
		encode = func() []float64 { return req.RealDst }
	default:
		if len(treq.Data) != 2*n {
			http.Error(w, fmt.Sprintf("want %d interleaved re,im values for %v, got %d",
				2*n, treq.Dims, len(treq.Data)), http.StatusBadRequest)
			return
		}
		req.Src = deinterleave(treq.Data)
		req.Dst = make([]complex128, n)
		encode = func() []float64 { return interleave(req.Dst) }
	}

	// Every request gets a trace ID, echoed in the response header. For
	// sharded requests it rides the context into the coordinator, so the
	// whole fleet tags this transform's spans with it and the caller can
	// pull the merged timeline from /debug/trace/<id>.
	traceID := trace.NewTraceID()
	ctx := trace.ContextWithID(r.Context(), traceID)
	w.Header().Set("X-Trace-Id", traceID)

	start := time.Now()
	err = h.s.Do(ctx, req)
	h.recordFlight(traceID, &treq, dims, start, err)
	switch {
	case err == nil:
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusRequestTimeout)
		return
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(transformResponse{Data: encode()})
}

// recordFlight files one settled request in the flight recorder ring.
func (h *handler) recordFlight(traceID string, treq *transformRequest, dims [3]int, start time.Time, err error) {
	kind := "complex"
	switch {
	case treq.Sharded:
		kind = "shard"
	case treq.Real:
		kind = "real"
	}
	e := flightrec.Entry{
		Time: start, TraceID: traceID, Kind: kind,
		Dims: dims, Rank: treq.Rank, Inverse: treq.Inverse,
		Duration: time.Since(start), Status: "ok",
	}
	if err != nil {
		e.Status = "error"
		e.Error = err.Error()
		switch {
		case errors.Is(err, serve.ErrOverloaded):
			e.ErrKind = "overloaded"
		case errors.Is(err, serve.ErrClosed):
			e.ErrKind = "closed"
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			e.ErrKind = "deadline"
		default:
			if se, ok := shard.AsError(err); ok {
				e.ErrKind = se.Kind.String()
			} else {
				e.ErrKind = "invalid"
			}
		}
	}
	h.flight.Record(e)
}

// specLen returns the Hermitian half-spectrum element count for a real
// grid of n elements whose last (contiguous) dim is dims[rank-1].
func specLen(dims [3]int, rank, n int) int {
	last := dims[rank-1]
	return n / last * (last/2 + 1)
}

func interleave(c []complex128) []float64 {
	out := make([]float64, 2*len(c))
	for i, v := range c {
		out[2*i] = real(v)
		out[2*i+1] = imag(v)
	}
	return out
}

func deinterleave(data []float64) []complex128 {
	c := make([]complex128, len(data)/2)
	for i := range c {
		c[i] = complex(data[2*i], data[2*i+1])
	}
	return c
}

// metrics serves the Prometheus text exposition: the serving layer's
// counters and latency histogram followed by the per-plan per-stage
// bandwidth gauges of every live collector in the process-wide registry.
// The two writers emit disjoint metric families, so concatenation is a
// valid exposition.
func (h *handler) metrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := h.writeMetrics(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// writeMetrics emits this node's full exposition: serving counters,
// per-plan bandwidth gauges, shard families, and the build-info gauge.
// All four writers emit disjoint metric families, so concatenation is a
// valid exposition.
func (h *handler) writeMetrics(buf *bytes.Buffer) error {
	if err := h.s.WritePrometheus(buf); err != nil {
		return err
	}
	if err := obs.Default.WritePrometheus(buf); err != nil {
		return err
	}
	if err := obs.ShardDefault.WritePrometheus(buf); err != nil {
		return err
	}
	return buildInfo.WritePrometheus(buf)
}

// fleetClient scrapes peers for /metrics/fleet; bounded so one stuck peer
// cannot hang the aggregation.
var fleetClient = &http.Client{Timeout: 10 * time.Second}

// metricsFleet aggregates the fleet's expositions: this node's own metrics
// plus a live scrape of every -peers worker, each sample relabeled with a
// node label, re-emitted as one merged exposition.
func (h *handler) metricsFleet(w http.ResponseWriter, r *http.Request) {
	var local bytes.Buffer
	if err := h.writeMetrics(&local); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	exp, err := obs.ParseExposition(&local)
	if err != nil {
		http.Error(w, fmt.Sprintf("local exposition: %v", err), http.StatusInternalServerError)
		return
	}
	nodes := []obs.NodeExposition{{Node: "self", Exp: exp}}
	for _, peer := range h.fleetPeers {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, peer+"/metrics", nil)
		if err != nil {
			http.Error(w, fmt.Sprintf("peer %s: %v", peer, err), http.StatusInternalServerError)
			return
		}
		resp, err := fleetClient.Do(req)
		if err != nil {
			http.Error(w, fmt.Sprintf("scrape %s: %v", peer, err), http.StatusBadGateway)
			return
		}
		pexp, perr := obs.ParseExposition(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			http.Error(w, fmt.Sprintf("scrape %s: status %d", peer, resp.StatusCode), http.StatusBadGateway)
			return
		}
		if perr != nil {
			http.Error(w, fmt.Sprintf("scrape %s: %v", peer, perr), http.StatusBadGateway)
			return
		}
		nodes = append(nodes, obs.NodeExposition{Node: peer, Exp: pexp})
	}
	var out bytes.Buffer
	if err := obs.WriteFleet(&out, nodes); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(out.Bytes())
}

// debugTrace serves the merged Perfetto timeline of one sharded transform:
// GET /debug/trace/<id> (or /debug/trace/last) gathers every fleet
// member's span slice over /shard/trace and emits one Chrome trace_event
// JSON document, loadable directly in ui.perfetto.dev.
func (h *handler) debugTrace(w http.ResponseWriter, r *http.Request) {
	if h.coord == nil {
		http.Error(w, "not a shard coordinator (start with -peers)", http.StatusNotFound)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if id == "" || id == "last" {
		id = h.coord.LastTraceID()
	}
	if id == "" {
		http.Error(w, "no traces retained yet", http.StatusNotFound)
		return
	}
	var buf bytes.Buffer
	if err := h.coord.WriteMergedTrace(r.Context(), &buf, id); err != nil {
		if se, ok := shard.AsError(err); ok && se.Kind == shard.KindProtocol {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

func (h *handler) metricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(h.s.Stats())
}

func (h *handler) healthz(w http.ResponseWriter, _ *http.Request) {
	if !h.s.Healthy() || (h.worker != nil && h.worker.Draining()) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// runSelftest exercises the full HTTP surface against a loopback instance:
// total concurrent round trips across mixed shapes, endpoint checks, and a
// drain that must account for every request.
func runSelftest(h *handler, total int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: h.mux()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	if err := checkHealthz(base, http.StatusOK); err != nil {
		return err
	}

	shapes := []struct {
		rank int
		dims []int
		real bool
	}{
		{1, []int{256}, false},
		{1, []int{1024}, false},
		{2, []int{32, 32}, false},
		{3, []int{8, 8, 8}, false},
		{1, []int{512}, true},
		{2, []int{16, 32}, true},
		{3, []int{8, 8, 16}, true},
	}
	var wg sync.WaitGroup
	errCh := make(chan error, total)
	for g := 0; g < total; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sh := shapes[g%len(shapes)]
			var err error
			if sh.real {
				err = roundTripReal(base, sh.rank, sh.dims, g)
			} else {
				err = roundTrip(base, sh.rank, sh.dims, g)
			}
			if err != nil {
				errCh <- fmt.Errorf("request %d (%v real=%v): %w", g, sh.dims, sh.real, err)
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}

	var snap serve.Snapshot
	if err := getJSON(base+"/metrics.json", &snap); err != nil {
		return err
	}
	// Every smoke request is a forward+inverse pair.
	if want := uint64(2 * total); snap.Completed < want {
		return fmt.Errorf("/metrics.json: completed %d < %d submitted", snap.Completed, want)
	}
	if !snap.Healthy || snap.Failed != 0 {
		return fmt.Errorf("/metrics.json: unexpected state %+v", snap)
	}
	if err := checkPrometheus(base, snap.Completed); err != nil {
		return err
	}
	fmt.Printf("fftserved: %d requests, avg batch %.1f, p99 %s, cache %d/%d (%d hits)\n",
		snap.Completed, snap.AvgBatch, time.Duration(snap.P99LatencyNs),
		snap.Cache.Len, snap.Cache.Capacity, snap.Cache.Hits)

	// Drain: transform pipeline first so /healthz flips while HTTP still
	// answers, then the HTTP server.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.s.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := checkHealthz(base, http.StatusServiceUnavailable); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// roundTrip sends a forward transform of a seeded vector followed by an
// inverse of the result and checks the pair composes to the identity.
func roundTrip(base string, rank int, dims []int, seed int) error {
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := make([]float64, 2*n)
	for i := range data {
		// Deterministic, seed-dependent, O(1)-range values.
		data[i] = math.Sin(float64(seed+1) * float64(i+1) * 0.7)
	}
	spec, err := postTransform(base, transformRequest{Rank: rank, Dims: dims, Data: data})
	if err != nil {
		return fmt.Errorf("forward: %w", err)
	}
	back, err := postTransform(base, transformRequest{Rank: rank, Dims: dims, Inverse: true, Data: spec})
	if err != nil {
		return fmt.Errorf("inverse: %w", err)
	}
	for i := range data {
		if math.Abs(back[i]-data[i]) > 1e-9*float64(n) {
			return fmt.Errorf("round trip diverged at %d: %g vs %g", i, back[i], data[i])
		}
	}
	return nil
}

// roundTripReal sends a forward real transform (plain reals in, half
// spectrum out) followed by the inverse and checks the identity — the
// r2c/c2r wire format end to end.
func roundTripReal(base string, rank int, dims []int, seed int) error {
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(seed+1) * float64(i+1) * 0.7)
	}
	spec, err := postTransform(base, transformRequest{Rank: rank, Dims: dims, Real: true, Data: data})
	if err != nil {
		return fmt.Errorf("forward: %w", err)
	}
	wantSpec := n / dims[rank-1] * (dims[rank-1]/2 + 1)
	if len(spec) != 2*wantSpec {
		return fmt.Errorf("half spectrum carries %d values, want %d", len(spec), 2*wantSpec)
	}
	back, err := postTransform(base, transformRequest{Rank: rank, Dims: dims, Real: true, Inverse: true, Data: spec})
	if err != nil {
		return fmt.Errorf("inverse: %w", err)
	}
	if len(back) != n {
		return fmt.Errorf("real inverse carries %d values, want %d", len(back), n)
	}
	for i := range data {
		if math.Abs(back[i]-data[i]) > 1e-9*float64(n) {
			return fmt.Errorf("real round trip diverged at %d: %g vs %g", i, back[i], data[i])
		}
	}
	return nil
}

func postTransform(base string, treq transformRequest) ([]float64, error) {
	body, err := json.Marshal(treq)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/transform", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var tresp transformResponse
	if err := json.NewDecoder(resp.Body).Decode(&tresp); err != nil {
		return nil, err
	}
	return tresp.Data, nil
}

// checkPrometheus scrapes /metrics and validates the exposition the way a
// Prometheus server would: it must parse, declare no duplicate series,
// carry the request counters and latency histogram consistent with the
// JSON snapshot, include at least one per-stage bandwidth gauge from the
// plans the smoke requests built, and contain no NaN or infinite value.
func checkPrometheus(base string, completed uint64) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return fmt.Errorf("/metrics: content type %q, want text/plain exposition", ct)
	}
	samples, err := obs.ValidateExposition(resp.Body)
	if err != nil {
		return fmt.Errorf("/metrics: invalid exposition: %w", err)
	}

	var sawCompleted, sawHistogram, sawStageGBs, sawRealExec, sawComplexExec, sawBuildInfo bool
	for _, s := range samples {
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("/metrics: %s is %v", s.Series(), s.Value)
		}
		switch s.Name {
		case "fft_build_info":
			if s.Value != 1 || s.Labels["kernel_tier"] == "" || s.Labels["version"] == "" {
				return fmt.Errorf("/metrics: malformed fft_build_info %s = %v", s.Series(), s.Value)
			}
			sawBuildInfo = true
		case "fft_requests_total":
			if s.Labels["result"] == "completed" {
				if uint64(s.Value) != completed {
					return fmt.Errorf("/metrics: completed counter %v, want %d", s.Value, completed)
				}
				sawCompleted = true
			}
		case "fft_request_duration_seconds_count":
			if s.Value <= 0 {
				return fmt.Errorf("/metrics: latency histogram empty after %d requests", completed)
			}
			sawHistogram = true
		case "fft_stage_bandwidth_gbps":
			if s.Value > 0 {
				sawStageGBs = true
			}
		case "fft_plan_executions_total":
			switch s.Labels["kind"] {
			case "real":
				sawRealExec = s.Value > 0
			case "complex":
				sawComplexExec = s.Value > 0
			}
		}
	}
	switch {
	case !sawCompleted:
		return errors.New("/metrics: missing fft_requests_total{result=\"completed\"}")
	case !sawHistogram:
		return errors.New("/metrics: missing fft_request_duration_seconds_count")
	case !sawStageGBs:
		return errors.New("/metrics: no positive fft_stage_bandwidth_gbps gauge from the smoke plans")
	case !sawRealExec || !sawComplexExec:
		return fmt.Errorf("/metrics: fft_plan_executions_total kind split missing (real=%v complex=%v)",
			sawRealExec, sawComplexExec)
	case !sawBuildInfo:
		return errors.New("/metrics: missing fft_build_info")
	}
	return nil
}

func getJSON(url string, into any) (err error) {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func checkHealthz(base string, want int) error {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("/healthz: status %d, want %d", resp.StatusCode, want)
	}
	return nil
}
