package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// item is one distinct request: its wire body, the in-process request it
// replays as, and the reference its output must match.
type item struct {
	Rank    int
	Dims    [3]int
	Inverse bool
	Real    bool
	In      []complex128 // input; reals in the real parts for a real forward
	Want    []complex128 // reference output; reals in the real parts for a real inverse
	Body    []byte

	mu sync.Mutex
	ok [][]byte // distinct replies already checked against Want
}

// realOut reports whether the response carries plain reals.
func (it *item) realOut() bool { return it.Real && it.Inverse }

type wireRequest struct {
	Rank    int       `json:"rank"`
	Dims    []int     `json:"dims"`
	Inverse bool      `json:"inverse"`
	Real    bool      `json:"real,omitempty"`
	Data    []float64 `json:"data"`
}

func newItem(rank int, dims [3]int, inverse, isReal bool, in, want []complex128) *item {
	it := &item{Rank: rank, Dims: dims, Inverse: inverse, Real: isReal, In: in, Want: want}
	data := interleave(in)
	if isReal && !inverse {
		data = realParts(in)
	}
	// Marshalling plain ints, bools and finite floats cannot fail.
	it.Body, _ = json.Marshal(wireRequest{Rank: rank, Dims: dims[:rank], Inverse: inverse, Real: isReal, Data: data})
	return it
}

func interleave(c []complex128) []float64 {
	out := make([]float64, 2*len(c))
	for i, v := range c {
		out[2*i], out[2*i+1] = real(v), imag(v)
	}
	return out
}

// maxReplyVariants bounds how many distinct correct replies an item
// remembers; batched and singleton executions may differ in the last bits.
const maxReplyVariants = 4

// verify checks one HTTP reply against the item's reference: a non-200
// status, an undecodable body, a wrong length or a wrong value is a
// failure. A reply byte-identical to one already checked passes without
// decoding again, which keeps the load generator's CPU use small next to
// the server it shares the host with.
func (it *item) verify(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	it.mu.Lock()
	for _, ok := range it.ok {
		if bytes.Equal(ok, body) {
			it.mu.Unlock()
			return nil
		}
	}
	it.mu.Unlock()
	if err := it.check(body); err != nil {
		return err
	}
	it.mu.Lock()
	if len(it.ok) < maxReplyVariants {
		it.ok = append(it.ok, body)
	}
	it.mu.Unlock()
	return nil
}

// check decodes a reply and compares it with the reference.
func (it *item) check(body []byte) error {
	var resp struct {
		Data []float64 `json:"data"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	if it.realOut() {
		return checkClose(asComplex(resp.Data), it.Want)
	}
	if len(resp.Data)%2 != 0 {
		return fmt.Errorf("odd reply length %d", len(resp.Data))
	}
	got := make([]complex128, len(resp.Data)/2)
	for i := range got {
		got[i] = complex(resp.Data[2*i], resp.Data[2*i+1])
	}
	return checkClose(got, it.Want)
}

// exchange is one request/reply over HTTP.
type exchange struct {
	Start, End time.Time // send, last reply byte
	Status     int
	Reply      []byte
}

func post(c *http.Client, url string, body []byte) (exchange, error) {
	x := exchange{Start: time.Now()}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return x, err
	}
	x.Reply, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	x.End, x.Status = time.Now(), resp.StatusCode
	return x, err
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// tally counts a run's operations. Latencies are kept for verified
// operations only; every failed, refused or wrong one counts in failed.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	lat       latencies // all verified operations
	lateHalf  latencies // verified operations in the traced half of a traced run
	earlyHalf latencies // verified operations in the untraced half
	reqBytes  int
	respBytes int
	lastEnd   time.Time
}

func (t *tally) add(lat time.Duration, traced bool, end time.Time, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if end.After(t.lastEnd) {
		t.lastEnd = end
	}
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
		return
	}
	t.lat.add(lat)
	if traced {
		t.lateHalf.add(lat)
	} else {
		t.earlyHalf.add(lat)
	}
}

func (t *tally) bytes(req, resp int) {
	t.mu.Lock()
	t.reqBytes += req
	t.respBytes += resp
	t.mu.Unlock()
}

// send posts it, checks the reply and counts it in t. When tr is on it
// records the exchange as an fftserved.http span.
func send(tr *tracer, c *http.Client, url string, it *item, req int, t *tally) {
	x, err := post(c, url, it.Body)
	traced := tr != nil && tr.on
	if traced {
		tr.record("fftserved.http", 0, req, x.Start, x.End)
	}
	if err == nil {
		err = it.verify(x.Status, x.Reply)
	}
	t.bytes(len(it.Body), len(x.Reply))
	t.add(x.End.Sub(x.Start), traced, x.End, err)
}

// closedLoop runs conns callers against url until the deadline; caller c
// sends next(c, i) for its i-th request as soon as the previous reply has
// been checked. The second half of the run is traced when tr is on.
func closedLoop(c *http.Client, url string, conns int, seconds time.Duration, tr *tracer, next func(conn, i int) *item) *tally {
	t := &tally{}
	start := time.Now()
	deadline, half := start.Add(seconds), start.Add(seconds/2)
	var wg sync.WaitGroup
	var id atomic.Int64
	for conn := 0; conn < conns; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				rid := int(id.Add(1))
				var use *tracer
				if tr != nil && tr.on && time.Now().After(half) {
					use = tr
				}
				send(use, c, url, next(conn, i), rid, t)
			}
		}(conn)
	}
	wg.Wait()
	return t
}

// serveRequest builds the in-process request an item replays as.
func (it *item) serveRequest() (serve.Request, func() []complex128) {
	req := serve.Request{Rank: it.Rank, Dims: it.Dims, Inverse: it.Inverse, Real: it.Real}
	switch {
	case it.Real && !it.Inverse:
		req.RealSrc = realParts(it.In)
		req.Dst = make([]complex128, len(it.Want))
		return req, func() []complex128 { return req.Dst }
	case it.Real:
		req.Src = it.In
		req.RealDst = make([]float64, len(it.Want))
		return req, func() []complex128 { return asComplex(req.RealDst) }
	default:
		req.Src = it.In
		req.Dst = make([]complex128, len(it.Want))
		return req, func() []complex128 { return req.Dst }
	}
}

func realParts(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = real(v)
	}
	return out
}

func asComplex(x []float64) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(v, 0)
	}
	return out
}

// execute runs req's transform directly on plan.
func execute(plan *serve.Plan, req serve.Request) error {
	switch {
	case req.Real && req.Inverse:
		return plan.ExecuteReal(req.Src, req.RealDst, true)
	case req.Real:
		return plan.ExecuteReal(req.Dst, req.RealSrc, false)
	}
	return plan.Execute(req.Dst, req.Src, req.Inverse)
}

// step runs f inside a span of tr and returns how long it took.
func step(tr *tracer, name string, parent, req int, f func() error) (time.Duration, error) {
	id := tr.begin(name, parent, req)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	tr.end(id)
	return d, err
}

// replayTimes are one sampled request's times through the three entry
// points: HTTP, in-process serve.Server.Do, and PlanCache.Get plus
// Plan.Execute.
type replayTimes struct {
	HTTP, Do, Get, Exec time.Duration
	Miss, Real          bool
}

// replay sends each sampled item over HTTP, then through an in-process
// serve.Server with fftserved's default options, then through a PlanCache
// of the server's default capacity and the plan's Execute, checking each
// of the three outputs as one operation of res. The three steps share one
// request ID in tr, so the fftserved, serve and engine self times nest by
// subtraction.
func replay(c *http.Client, url string, sample []*item, tr *tracer, res *result) []replayTimes {
	ctx := context.Background()
	inproc := serve.New(serve.Options{})
	defer inproc.Shutdown(ctx)
	pc := serve.NewPlanCache(32)
	defer pc.Purge()
	out := make([]replayTimes, 0, len(sample))
	for i, it := range sample {
		rid := i + 1
		root := tr.begin("bench.replay", 0, rid)
		rt := replayTimes{Real: it.Real}

		var x exchange
		var err error
		rt.HTTP, err = step(tr, "fftserved.http", root, rid, func() (err error) {
			x, err = post(c, url, it.Body)
			return err
		})
		if err == nil {
			err = it.verify(x.Status, x.Reply)
		}
		res.op(err)

		req, result := it.serveRequest()
		rt.Do, err = step(tr, "serve.Server.Do", root, rid, func() error { return inproc.Do(ctx, req) })
		if err == nil {
			err = checkClose(result(), it.Want)
		}
		res.op(err)

		key := serve.PlanKey{Rank: it.Rank, D0: it.Dims[0], D1: it.Dims[1], D2: it.Dims[2], Real: it.Real, Cfg: core.Default()}
		misses := pc.Stats().Misses
		var plan *serve.Plan
		var release func()
		rt.Get, err = step(tr, "serve.PlanCache.Get", root, rid, func() (err error) {
			plan, release, err = pc.Get(key)
			return err
		})
		rt.Miss = pc.Stats().Misses > misses
		if err == nil {
			req, result = it.serveRequest()
			name := "serve.Plan.Execute"
			if it.Real {
				name = "serve.Plan.ExecuteReal"
			}
			rt.Exec, err = step(tr, name, root, rid, func() error { return execute(plan, req) })
			release()
			if err == nil {
				err = checkClose(result(), it.Want)
			}
		}
		res.op(err)
		tr.end(root)
		out = append(out, rt)
	}
	return out
}
