// Command perfbench is the repository's benchmark. It runs one named
// workload against the code in this checkout, checks every output against
// an independent reference, and prints its metrics as one JSON object on
// the last line of standard output:
//
//	perfbench -fftserved <binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1
// the per-layer metrics of a separate traced run, whose spans are written
// as Chrome trace JSON under .bench_build/traces. run.sh builds this
// command and fftserved from the checkout and runs it; README.md lists the
// workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"core.plan_build_ms.fft3d", "ms"},
		{"core.plan_build_ms.fft2d", "ms"},
	}
	for _, sh := range []oocShape{shape3D, shape2D} {
		for _, st := range sh.stages {
			pre := "stagegraph." + sh.name + "." + st
			d = append(d, metricDef{pre + ".data_s", "s"}, metricDef{pre + ".compute_s", "s"},
				metricDef{pre + ".load_gbps", "GB/s"}, metricDef{pre + ".store_gbps", "GB/s"})
		}
		pre := "stagegraph." + sh.name
		d = append(d, metricDef{pre + ".barrier_share", "ratio"}, metricDef{pre + ".overlap_sched", "ratio"},
			metricDef{pre + ".unattributed_share", "ratio"})
	}
	return append(d, []metricDef{
		{"layout.rotate3d_gbps", "GB/s"},
		{"layout.transpose_gbps", "GB/s"},
		{"fft1d.batch_gbps", "GB/s"},
		{"stream.copy_gbps", "GB/s"},
		{"stream.copy_gbps.before", "GB/s"},
		{"stream.copy_gbps.after", "GB/s"},
		{"fft3d.frac_stream", "ratio"},
		{"fft2d.frac_stream", "ratio"},
		{"fftserved.self_ms_p50", "ms"},
		{"fftserved.cpu_ms_per_req", "ms"},
		{"fftserved.req_kib", "KiB"},
		{"fftserved.resp_kib", "KiB"},
		{"serve.self_us_p50", "us"},
		{"serve.server_p50_ms", "ms"},
		{"serve.avg_batch", "count"},
		{"serve.rejected", "count"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.cache_evictions", "count"},
		{"serve.plan_build_ms_p50", "ms"},
		{"serve.exec_us_p50.complex", "us"},
		{"serve.exec_us_p50.real", "us"},
		{"shard.exchange_bytes", "bytes"},
		{"shard.exchange_chunks", "count"},
		{"shard.scatter_bytes", "bytes"},
		{"shard.gather_bytes", "bytes"},
		{"shard.retries", "count"},
		{"shard.chunks_rejected", "count"},
		{"shard.exchange_wait_ms", "ms"},
		{"shard.straggler_ratio", "ratio"},
		{"shard.single_node_ms_p50", "ms"},
		{"gen.cpu_ms_per_req", "ms"},
		{"trace.overhead_ms", "ms"},
		{"trace.coverage", "ratio"},
	}...)
}()

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) (*result, error){
	"ooc-fft3d":         func(e *env) (*result, error) { return runOOC(e, shape3D) },
	"ooc-fft2d":         func(e *env) (*result, error) { return runOOC(e, shape2D) },
	"http-2d-json":      runHTTP2D,
	"http-1d-mix":       runHTTP1D,
	"shard-3d-loopback": runShard,
}

// env is one run's configuration.
type env struct {
	workload  string
	seed      uint64
	seconds   time.Duration
	fftserved string
	host      hostRecord
	tr        *tracer
	out       io.Writer
}

func (e *env) printf(format string, args ...any) {
	fmt.Fprintf(e.out, "# "+format+"\n", args...)
}

// saveTrace writes a tracer's spans as Chrome trace JSON.
func (e *env) saveTrace(t *tracer, part string) {
	name := fmt.Sprintf("%s-seed%d-%s.json", e.workload, e.seed, part)
	path, err := t.save(".bench_build/traces", name)
	if err != nil {
		e.printf("trace not written: %v", err)
		return
	}
	e.printf("chrome trace: %s (%d spans)", path, len(t.spans))
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	errs              []string
	notes             []string
	e2e, layer        map[string]float64
}

func newResult() *result {
	return &result{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// op counts one checked operation.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail counts a failure that is not an operation of its own, such as an
// unclean shutdown.
func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// count adds a tally's operations.
func (r *result) count(t *tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	for _, e := range t.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3fs", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// watchdog bounds a run: past the limit it stops every subprocess and
// exits without a result.
func watchdog(limit time.Duration) {
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", limit)
		killAll()
		os.Exit(3)
	})
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload name")
		seed      = flag.Uint64("seed", 1, "input seed")
		seconds   = flag.Int("seconds", 10, "timed phase length in seconds")
		traceOn   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		fftserved = flag.String("fftserved", "", "fftserved binary built from this checkout")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1, --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	// Set-up, the STREAM passes and the ceilings take at most about 30 s
	// past the timed phase; the limit leaves room for a slow host.
	watchdog(time.Duration(*seconds)*time.Second + 150*time.Second)
	host, err := readHost()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	e := &env{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		fftserved: *fftserved, host: host, tr: &tracer{on: *traceOn == 1}, out: os.Stdout,
	}
	e.printf("workload=%s seed=%d seconds=%d trace=%d", *workload, *seed, *seconds, *traceOn)
	e.printf("host: %s", host)
	res, err := run(e)
	if err != nil {
		killAll()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if e.tr.on {
		e.saveTrace(e.tr, "timed")
	}
	for _, n := range res.notes {
		e.printf("%s", n)
	}
	for _, msg := range res.errs {
		e.printf("FAILED: %s", msg)
	}
	failedRatio := 0.0
	if res.attempted > 0 {
		failedRatio = float64(res.failed) / float64(res.attempted)
	}
	e.printf("failed_ratio = %g (%d of %d operations) [ratio]", failedRatio, res.failed, res.attempted)

	defs, values := endToEnd, res.e2e
	if e.tr.on {
		defs, values = perLayer, res.layer
	}
	out := jsonResult{Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !e.tr.on {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *workload, d.Name)
			os.Exit(1)
		}
		out.Metrics[d.Name] = jsonMetric{v, d.Unit}
		e.printf("%-36s %16.6f %s", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
