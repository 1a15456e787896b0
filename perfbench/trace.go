package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gem5aladdin/internal/obs"
)

// tracer records the benchmark's spans around each layer call. Spans go to
// an obs.SpanTracer whose sink is an in-memory buffer (one JSON line per
// finished span); the buffer is parsed for the per-layer metrics and
// written out when the run ends. A nil *tracer is the untraced run: every
// span it hands out is the nil no-op span.
type tracer struct {
	spans *obs.SpanTracer
	mu    sync.Mutex
	buf   bytes.Buffer
}

func newTracer() *tracer {
	t := &tracer{}
	// Retention 1: spans are kept by the sink, not the export ring.
	t.spans = obs.NewSpanTracer(t, 1)
	return t
}

// Write is the span sink; the server's workers and the benchmark's clients
// finish spans concurrently.
func (t *tracer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.Write(p)
}

// start opens a root span, nil when untraced.
func (t *tracer) start(name string) *obs.Span {
	if t == nil {
		return nil
	}
	return t.spans.StartTrace(name)
}

// tracerOf returns the span tracer to hand to the program, nil when
// untraced.
func (t *tracer) tracerOf() *obs.SpanTracer {
	if t == nil {
		return nil
	}
	return t.spans
}

// spanRec is one finished span as the sink recorded it.
type spanRec struct {
	Trace  string     `json:"trace"`
	Span   uint64     `json:"span"`
	Parent uint64     `json:"parent"`
	Name   string     `json:"name"`
	Start  time.Time  `json:"start"`
	DurUS  float64    `json:"dur_us"`
	Attrs  []obs.Attr `json:"attrs"`
}

func (r *spanRec) end() time.Time {
	return r.Start.Add(time.Duration(r.DurUS * float64(time.Microsecond)))
}

// num returns a numeric attribute (JSON numbers decode as float64).
func (r *spanRec) num(key string) (float64, bool) {
	for _, a := range r.Attrs {
		if a.Key == key {
			v, ok := a.Value.(float64)
			return v, ok
		}
	}
	return 0, false
}

func (r *spanRec) str(key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			s, _ := a.Value.(string)
			return s
		}
	}
	return ""
}

// spanSet indexes the recorded spans.
type spanSet struct {
	all      []*spanRec
	byID     map[uint64]*spanRec
	children map[uint64][]*spanRec
}

func (t *tracer) records() (*spanSet, error) {
	t.mu.Lock()
	data := append([]byte(nil), t.buf.Bytes()...)
	t.mu.Unlock()
	set := &spanSet{byID: map[uint64]*spanRec{}, children: map[uint64][]*spanRec{}}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		r := new(spanRec)
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("decoding span record: %w", err)
		}
		set.all = append(set.all, r)
		set.byID[r.Span] = r
		if r.Parent != 0 {
			set.children[r.Parent] = append(set.children[r.Parent], r)
		}
	}
	return set, sc.Err()
}

// named returns the spans with the given name.
func (s *spanSet) named(name string) []*spanRec {
	var out []*spanRec
	for _, r := range s.all {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// totalMS sums the durations of the spans with the given name.
func (s *spanSet) totalMS(name string) float64 {
	sum := 0.0
	for _, r := range s.named(name) {
		sum += r.DurUS / 1e3
	}
	return sum
}

// selfUS is a span's self time: its duration minus the part of its
// interval that its child spans cover.
func (s *spanSet) selfUS(r *spanRec) float64 {
	return r.DurUS - float64(covered(s.children[r.Span], r.Start, r.end()))/1e3
}

// covered is how much of [lo, hi) the union of the spans covers.
func covered(spans []*spanRec, lo, hi time.Time) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range spans {
		a, b := c.Start, c.end()
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeFile writes the recorded spans out, one JSON line each.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return os.WriteFile(path, t.buf.Bytes(), 0o644)
}
