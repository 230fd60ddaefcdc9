package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// enclosing span's ID (0 for a root); Req groups the spans of one request.
type span struct {
	ID, Parent int
	Req        int
	Name       string
	Start, End time.Time
}

// tracer keeps spans in memory; a disabled tracer records nothing.
type tracer struct {
	on    bool
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID; 0 when tracing is off.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil || !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: time.Now()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-timed span and returns its ID.
func (t *tracer) record(name string, parent, req int, start, end time.Time) int {
	if t == nil || !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return len(t.spans)
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events, one lane per request).
func (t *tracer) writeChrome(w io.Writer) error {
	if len(t.spans) == 0 {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	t0 := t.spans[0].Start
	for _, s := range t.spans {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Req,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	return json.NewEncoder(w).Encode(evs)
}

// selfTimes returns each span name's total self time — its duration minus
// the part of it its children cover — and the total duration of the root
// spans, the traced end-to-end time the self times divide.
func (t *tracer) selfTimes() (self map[string]time.Duration, rootTotal time.Duration) {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make(map[string]time.Duration)
	for _, s := range t.spans {
		d := s.End.Sub(s.Start)
		if s.Parent == 0 {
			rootTotal += d
		}
		self[s.Name] += d - covered(s, children[s.ID])
	}
	return self, rootTotal
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var curS, curE time.Time
	for _, k := range kids {
		s, e := k.Start, k.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if !e.After(s) {
			continue
		}
		if curE.IsZero() || s.After(curE) {
			total += curE.Sub(curS)
			curS, curE = s, e
		} else if e.After(curE) {
			curE = e
		}
	}
	return total + curE.Sub(curS)
}

// selfTable prints each span name's self time as a share of the root
// spans' total time.
func (t *tracer) selfTable(w io.Writer) {
	self, root := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "# self time over %d spans, %.3f ms of traced end-to-end time:\n", len(t.spans), ms(root))
	if root == 0 {
		return
	}
	for _, n := range names {
		fmt.Fprintf(w, "#   %-36s %12.3f ms %6.2f%%\n", n, ms(self[n]), 100*float64(self[n])/float64(root))
	}
}

// childCoverage returns the share of the total time of the spans named by
// parent that their children cover. The children must come from a source
// of their own, such as the layer's own spans, for the share to say
// anything: a gap between them is time no layer accounts for.
func (t *tracer) childCoverage(parent func(name string) bool) float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total, cov time.Duration
	for _, s := range t.spans {
		if parent(s.Name) {
			total += s.End.Sub(s.Start)
			cov += covered(s, children[s.ID])
		}
	}
	if total == 0 {
		return 0
	}
	return float64(cov) / float64(total)
}

// save writes the Chrome trace under dir and returns the file's path.
func (t *tracer) save(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := t.writeChrome(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
