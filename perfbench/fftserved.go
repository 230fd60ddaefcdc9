package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// server is one fftserved subprocess on a loopback port.
type server struct {
	cmd     *exec.Cmd
	args    []string
	base    string
	log     *syncBuffer
	exited  chan struct{}
	waitErr error
}

// syncBuffer collects the subprocess's log.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// live tracks running subprocesses so the run's watchdog can stop them.
var live = struct {
	sync.Mutex
	m map[*server]bool
}{m: make(map[*server]bool)}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs fftserved with default flags on an ephemeral loopback
// port and returns once /healthz answers 200, with the time that took.
func startServer(bin string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	s := &server{
		args:   []string{"-addr", "127.0.0.1:" + strconv.Itoa(port)},
		base:   "http://127.0.0.1:" + strconv.Itoa(port),
		log:    &syncBuffer{},
		exited: make(chan struct{}),
	}
	s.cmd = exec.Command(bin, s.args...)
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start fftserved: %w", err)
	}
	live.Lock()
	live.m[s] = true
	live.Unlock()
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	for time.Since(start) < 60*time.Second {
		select {
		case <-s.exited:
			s.forget()
			return nil, 0, fmt.Errorf("fftserved exited before /healthz: %v\n%s", s.waitErr, s.log)
		default:
		}
		if resp, err := hc.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.kill()
	return nil, 0, fmt.Errorf("fftserved not healthy within 60s\n%s", s.log)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func (s *server) commandLine() string {
	return "fftserved " + strings.Join(s.args, " ")
}

// stop sends SIGTERM and requires a clean drain: exit status 0 within 30 s,
// the drain logged, and no process left behind.
func (s *server) stop() error {
	defer s.forget()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal fftserved: %w", err)
	}
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("fftserved did not exit within 30s of SIGTERM")
	}
	if s.waitErr != nil {
		return fmt.Errorf("fftserved exited uncleanly: %v\n%s", s.waitErr, s.log)
	}
	if !strings.Contains(s.log.String(), "draining") {
		return fmt.Errorf("fftserved exited without draining\n%s", s.log)
	}
	if _, err := os.Stat(fmt.Sprintf("/proc/%d", s.pid())); err == nil {
		return fmt.Errorf("fftserved pid %d still present after exit", s.pid())
	}
	return nil
}

// kill stops the process without a drain and waits for it; safe to call
// after stop.
func (s *server) kill() {
	select {
	case <-s.exited:
	default:
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.forget()
}

func (s *server) forget() {
	live.Lock()
	delete(live.m, s)
	live.Unlock()
}

func killAll() {
	live.Lock()
	servers := make([]*server, 0, len(live.m))
	for s := range live.m {
		servers = append(servers, s)
	}
	live.Unlock()
	for _, s := range servers {
		s.kill()
	}
}

// bootServer starts fftserved reps times and returns the last instance,
// still running, with every boot's time to a healthy /healthz. Each earlier
// instance is stopped through the clean-drain check.
func bootServer(bin string, reps int) (*server, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		s, d, err := startServer(bin)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i == reps-1 {
			return s, setups, nil
		}
		if err := s.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// scrape is one reading of fftserved's own telemetry.
type scrape struct {
	snap serve.Snapshot
	hist map[float64]float64 // cumulative request-latency buckets by upper bound (s)
	cpu  time.Duration
}

func (s *server) scrape(c *http.Client) (scrape, error) {
	var out scrape
	resp, err := c.Get(s.base + "/metrics.json")
	if err != nil {
		return out, err
	}
	err = json.NewDecoder(resp.Body).Decode(&out.snap)
	resp.Body.Close()
	if err != nil {
		return out, fmt.Errorf("decode /metrics.json: %w", err)
	}
	resp, err = c.Get(s.base + "/metrics")
	if err != nil {
		return out, err
	}
	exp, err := obs.ParseExposition(resp.Body)
	resp.Body.Close()
	if err != nil {
		return out, fmt.Errorf("parse /metrics: %w", err)
	}
	out.hist = make(map[float64]float64)
	for _, sm := range exp.Samples {
		if sm.Name != "fft_request_duration_seconds_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(sm.Labels["le"], 64)
		if err != nil {
			return out, fmt.Errorf("bucket bound %q: %w", sm.Labels["le"], err)
		}
		out.hist[le] = sm.Value
	}
	out.cpu, err = procCPU(s.pid())
	return out, err
}

// histQuantile returns the q-quantile in seconds of the requests that
// settled between two scrapes, interpolating linearly inside the bucket.
// Buckets are log₂-spaced, so a bucket bounded above by le starts at le/2.
func histQuantile(before, after map[float64]float64, q float64) float64 {
	les := make([]float64, 0, len(after))
	for le := range after {
		les = append(les, le)
	}
	sort.Float64s(les)
	delta := func(le float64) float64 { return after[le] - before[le] }
	total := delta(math.Inf(1))
	if total <= 0 {
		return 0
	}
	target := q * total
	prev, top := 0.0, 0.0
	for _, le := range les {
		if math.IsInf(le, 1) {
			break
		}
		cum := delta(le)
		if cum >= target {
			lo := le / 2
			frac := 0.0
			if cum > prev {
				frac = (target - prev) / (cum - prev)
			}
			return lo + frac*(le-lo)
		}
		prev, top = cum, le
	}
	return top
}
