package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"authdb/internal/core"
	"authdb/internal/query"
	"authdb/internal/wire"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files: around the public calls it makes (owner, WAL, query
// server, client) and inside the three server-side seams it wraps (the
// listener, the answer codec and the plan engine). Times are
// nanoseconds since the tracer's origin.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// layer is the module a span's name charges: the text before the dot.
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op and no seam is wrapped.
//
// One client issues requests one at a time, so the request on the wire
// is whichever client span last called beginRequest; server-side spans
// take that span's id as their request id and are parented under it
// when the trace is assembled.
type tracer struct {
	t0   time.Time
	next atomic.Uint64
	req  atomic.Uint64

	mu     sync.Mutex
	spans  []span
	onWire map[uint64]*[2]int64 // request id → first request byte in, last response byte out
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), onWire: make(map[uint64]*[2]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent.
func (t *tracer) begin(name string, parent uint64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.next.Add(1), Parent: parent, Name: name, Start: t.now()}
}

// beginRequest opens a client span whose requests go on the wire.
func (t *tracer) beginRequest(name string, parent uint64) span {
	s := t.begin(name, parent)
	if t != nil {
		s.Req = s.ID
		t.req.Store(s.ID)
	}
	return s
}

// beginServer opens a span on a server goroutine for the request on
// the wire; its parent is resolved when the trace is assembled.
func (t *tracer) beginServer(name string) span {
	s := t.begin(name, 0)
	if t != nil {
		s.Req = t.req.Load()
	}
	return s
}

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wireIn notes request bytes arriving for req; wireOut notes a response
// write for req completing.
func (t *tracer) wireIn(req uint64) {
	now := t.now()
	t.mu.Lock()
	if t.onWire[req] == nil {
		t.onWire[req] = &[2]int64{now, now}
	}
	t.mu.Unlock()
}

func (t *tracer) wireOut(req uint64) {
	now := t.now()
	t.mu.Lock()
	if w := t.onWire[req]; w != nil && now > w[1] {
		w[1] = now
	}
	t.mu.Unlock()
}

// assemble turns the per-request wire marks into server.handle spans
// (request bytes in to last response byte out), parents every
// server-side span, and returns all spans ordered by start.
func (t *tracer) assemble() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	handle := make(map[uint64]uint64, len(t.onWire))
	for req, w := range t.onWire {
		id := t.next.Add(1)
		handle[req] = id
		t.spans = append(t.spans, span{ID: id, Parent: req, Req: req, Name: "server.handle", Start: w[0], End: w[1]})
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent == 0 && s.Req != 0 {
			if h, ok := handle[s.Req]; ok {
				s.Parent = h
			} else {
				s.Parent = s.Req
			}
		}
	}
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	return t.spans
}

// ---- the three server-side seams ----

// tracedListener marks, per request, when its bytes reach the server
// and when the server's last response write returns.
type tracedListener struct {
	net.Listener
	t *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t}, nil
}

type tracedConn struct {
	net.Conn
	t *tracer
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.t.wireIn(c.t.req.Load())
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	// The client cannot have moved on before this write starts, so the
	// request on the wire now is the one this response answers.
	req := c.t.req.Load()
	n, err := c.Conn.Write(p)
	c.t.wireOut(req)
	return n, err
}

// tracedCodec times answer-core encodes (answer-cache misses).
func tracedCodec(t *tracer, c core.AnswerCodec) core.AnswerCodec {
	return core.AnswerCodec{
		Encode: func(a *core.Answer) ([]byte, error) {
			s := t.beginServer("wire.encode")
			b, err := c.Encode(a)
			t.end(s)
			return b, err
		},
		Free: c.Free,
	}
}

// tracedEngine times plan execution and encoding (or a plan-cache hit)
// inside the plan engine.
type tracedEngine struct {
	*query.Engine
	t *tracer
}

func (e tracedEngine) ServePlan(plan []byte, since []wire.RelSince) ([]byte, []byte, func(), error) {
	s := e.t.beginServer("query.serve_plan")
	body, tails, release, err := e.Engine.ServePlan(plan, since)
	e.t.end(s)
	return body, tails, release, err
}

// ---- analysis ----

// traceReport is what the spans say about one traced loop.
type traceReport struct {
	byName   map[string][]*span
	selfNS   map[string]int64 // layer → self time
	covered  int64            // union of non-bench spans, ns
	elapsed  int64            // the timed loop, ns
	children map[uint64][]*span
}

// analyze computes self times per layer and the share of the loop the
// program's spans cover. A span's self time is its duration minus the
// part of it its children cover.
func analyze(spans []span, loopStart, loopEnd int64) *traceReport {
	r := &traceReport{
		byName:   make(map[string][]*span),
		selfNS:   make(map[string]int64),
		children: make(map[uint64][]*span),
		elapsed:  loopEnd - loopStart,
	}
	var prog [][2]int64
	for i := range spans {
		s := &spans[i]
		if s.End < loopStart || s.Start > loopEnd {
			continue
		}
		r.byName[s.Name] = append(r.byName[s.Name], s)
		if s.Parent != 0 {
			r.children[s.Parent] = append(r.children[s.Parent], s)
		}
		if s.layer() != "bench" {
			prog = append(prog, [2]int64{s.Start, s.End})
		}
	}
	for _, list := range r.byName {
		for _, s := range list {
			var kids [][2]int64
			for _, c := range r.children[s.ID] {
				kids = append(kids, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
			}
			r.selfNS[s.layer()] += s.dur() - union(kids)
		}
	}
	r.covered = union(prog)
	return r
}

// union is the total length covered by a set of intervals.
func union(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// sum totals the durations of the named spans (ns) and counts them.
func (r *traceReport) sum(name string) (int64, int) {
	var t int64
	for _, s := range r.byName[name] {
		t += s.dur()
	}
	return t, len(r.byName[name])
}

// mean is the mean duration of the named spans in the given unit.
func (r *traceReport) mean(name string, unit time.Duration) float64 {
	t, n := r.sum(name)
	if n == 0 {
		return 0
	}
	return float64(t) / float64(n) / float64(unit)
}

// handleOf returns the server.handle span a client span's request
// produced, if any.
func (r *traceReport) handleOf(s *span) *span {
	for _, c := range r.children[s.ID] {
		if c.Name == "server.handle" {
			return c
		}
	}
	return nil
}

// selfShare is a layer's self time as a percentage of the loop.
func (r *traceReport) selfShare(layer string) float64 {
	return 100 * float64(r.selfNS[layer]) / float64(r.elapsed)
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
