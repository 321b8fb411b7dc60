package obs

import (
	"encoding/json"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute: a key with either a string or an integer
// value. Integer attrs exist so hot-path instrumentation (worker ids, row
// counts) never formats — and therefore never allocates.
type Attr struct {
	Key   string
	str   string
	num   int64
	isNum bool
}

// Value renders the attribute value as a string.
func (a Attr) Value() string {
	if a.isNum {
		return strconv.FormatInt(a.num, 10)
	}
	return a.str
}

// IsInt reports whether the attribute holds an integer.
func (a Attr) IsInt() bool { return a.isNum }

// Int returns the integer value (0 for string attrs).
func (a Attr) Int() int64 { return a.num }

// MarshalJSON renders {"key": ..., "value": ...} with a typed value.
func (a Attr) MarshalJSON() ([]byte, error) {
	type kv struct {
		Key   string `json:"key"`
		Value any    `json:"value"`
	}
	if a.isNum {
		return json.Marshal(kv{a.Key, a.num})
	}
	return json.Marshal(kv{a.Key, a.str})
}

// Span is one timed node of a commit trace: a name, a window relative to
// the trace start, attributes, and children. Spans come from the tracer's
// pool and are recycled when their trace is evicted from the ring, so
// steady-state tracing allocates nothing.
//
// A span's mutating methods are nil-receiver-safe (tracing off → every
// span is nil → instrumentation is branch-only) but NOT safe for
// concurrent use on the same span. Concurrent tracers pre-create one span
// per unit of parallel work on the coordinator and let each worker fill
// only its own — the pattern sched.Pool uses.
type Span struct {
	name     string
	start    time.Duration // offset from the trace start
	dur      time.Duration
	attrs    []Attr
	children []*Span

	t0     time.Time // the owning trace's start, for offset computation
	tracer *Tracer
}

// Name returns the span name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Child creates a child span starting now.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.tracer.newSpan(name, s.t0)
	c.start = time.Since(s.t0)
	s.children = append(s.children, c)
	return c
}

// Begin re-stamps the span's start to now. Pre-created spans (built on a
// coordinator before being handed to a worker) call it when work actually
// starts.
func (s *Span) Begin() {
	if s != nil {
		s.start = time.Since(s.t0)
	}
}

// End closes the span's window.
func (s *Span) End() {
	if s != nil {
		s.dur = time.Since(s.t0) - s.start
	}
}

// SetAttr records a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, str: value})
	}
}

// SetAttrInt records an integer attribute without formatting.
func (s *Span) SetAttrInt(key string, value int64) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, num: value, isNum: true})
	}
}

// Trace is one in-flight span tree. Obtain via Tracer.Start (nil when
// tracing is off), fill the tree through Root, and Finish to record it.
type Trace struct {
	id     uint64
	t0     time.Time
	root   *Span
	tracer *Tracer
}

// Root returns the root span (nil on a nil trace).
func (tr *Trace) Root() *Span {
	if tr == nil {
		return nil
	}
	return tr.root
}

// Finish closes the root span and records the trace into the tracer's
// ring, promoting it to the slow log when it exceeds the threshold.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.root.End()
	tr.tracer.record(tr)
}

// Tracer owns span allocation (pooled), the bounded ring of recent traces,
// and the slow-trace promotion policy. The zero state is disabled: Start
// returns nil and instrumented code pays only nil checks.
type Tracer struct {
	enabled atomic.Bool
	slowNS  atomic.Int64
	seq     atomic.Uint64

	mu    sync.Mutex
	ring  []*Trace // oldest first; bounded by ringCap
	cap   int
	slowW io.Writer

	spanPool  sync.Pool
	tracePool sync.Pool

	// SlowCount counts promoted traces (readable without the lock).
	SlowCount Counter
}

// DefaultTraceRing is the ring capacity when the caller passes <= 0.
const DefaultTraceRing = 16

// NewTracer returns a disabled tracer with the given ring capacity.
func NewTracer(ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = DefaultTraceRing
	}
	t := &Tracer{cap: ringCap, slowW: os.Stderr}
	t.spanPool.New = func() any { return &Span{} }
	t.tracePool.New = func() any { return &Trace{} }
	return t
}

// SetEnabled turns span recording on or off. Traces already in the ring
// stay readable.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether tracing is on (false for a nil tracer).
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetSlowThreshold sets the duration above which a finished trace is
// promoted to the structured slow log (0 disables promotion).
func (t *Tracer) SetSlowThreshold(d time.Duration) { t.slowNS.Store(int64(d)) }

// SlowThreshold returns the promotion threshold.
func (t *Tracer) SlowThreshold() time.Duration { return time.Duration(t.slowNS.Load()) }

// SetSlowWriter redirects promoted traces (default os.Stderr). Each
// promotion writes one JSON line.
func (t *Tracer) SetSlowWriter(w io.Writer) {
	t.mu.Lock()
	t.slowW = w
	t.mu.Unlock()
}

// Start begins a trace, or returns nil when tracing is off (or the tracer
// itself is nil — components hold a nil Tracer when tracing was never
// configured).
func (t *Tracer) Start(name string) *Trace {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	tr := t.tracePool.Get().(*Trace)
	tr.id = t.seq.Add(1)
	tr.t0 = time.Now()
	tr.tracer = t
	tr.root = t.newSpan(name, tr.t0)
	return tr
}

func (t *Tracer) newSpan(name string, t0 time.Time) *Span {
	s := t.spanPool.Get().(*Span)
	s.name = name
	s.t0 = t0
	s.tracer = t
	return s
}

// record pushes a finished trace into the ring, recycling the evicted one.
func (t *Tracer) record(tr *Trace) {
	slow := t.slowNS.Load()
	isSlow := slow > 0 && tr.root.dur >= time.Duration(slow)
	var w io.Writer
	var line []byte
	if isSlow {
		t.SlowCount.Inc()
		snap := tr.snapshot()
		line, _ = json.Marshal(struct {
			Msg         string        `json:"msg"`
			ThresholdNS int64         `json:"threshold_ns"`
			Trace       TraceSnapshot `json:"trace"`
		}{"slow commit trace", slow, snap})
	}
	var evicted *Trace
	t.mu.Lock()
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, tr)
	} else {
		evicted = t.ring[0]
		copy(t.ring, t.ring[1:])
		t.ring[len(t.ring)-1] = tr
	}
	if isSlow {
		w = t.slowW
	}
	t.mu.Unlock()
	if evicted != nil {
		t.recycle(evicted)
	}
	if w != nil && len(line) > 0 {
		w.Write(append(line, '\n'))
	}
}

func (t *Tracer) recycle(tr *Trace) {
	t.recycleSpan(tr.root)
	tr.root = nil
	t.tracePool.Put(tr)
}

func (t *Tracer) recycleSpan(s *Span) {
	for _, c := range s.children {
		t.recycleSpan(c)
	}
	s.children = s.children[:0]
	s.attrs = s.attrs[:0]
	s.name = ""
	t.spanPool.Put(s)
}

// TraceSnapshot is a deep, caller-owned copy of one recorded trace.
type TraceSnapshot struct {
	ID       uint64        `json:"id"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Root     SpanSnapshot  `json:"root"`
}

// SpanSnapshot is the copied form of one span.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	Start    time.Duration  `json:"start_ns"`
	Duration time.Duration  `json:"duration_ns"`
	Attrs    []Attr         `json:"attrs,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

func (tr *Trace) snapshot() TraceSnapshot {
	return TraceSnapshot{ID: tr.id, Start: tr.t0, Duration: tr.root.dur, Root: snapshotSpan(tr.root)}
}

func snapshotSpan(s *Span) SpanSnapshot {
	out := SpanSnapshot{Name: s.name, Start: s.start, Duration: s.dur}
	if len(s.attrs) > 0 {
		out.Attrs = append([]Attr(nil), s.attrs...)
	}
	for _, c := range s.children {
		out.Children = append(out.Children, snapshotSpan(c))
	}
	return out
}

// Last returns a copy of the newest recorded trace, or nil when the ring
// is empty.
func (t *Tracer) Last() *TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) == 0 {
		return nil
	}
	s := t.ring[len(t.ring)-1].snapshot()
	return &s
}

// Traces returns copies of every recorded trace, oldest first, without
// removing them.
func (t *Tracer) Traces() []TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceSnapshot, 0, len(t.ring))
	for _, tr := range t.ring {
		out = append(out, tr.snapshot())
	}
	return out
}

// Drain returns copies of every recorded trace, oldest first, and empties
// the ring (recycling the traces' spans).
func (t *Tracer) Drain() []TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	drained := t.ring
	t.ring = make([]*Trace, 0, t.cap)
	t.mu.Unlock()
	out := make([]TraceSnapshot, 0, len(drained))
	for _, tr := range drained {
		out = append(out, tr.snapshot())
		t.recycle(tr)
	}
	return out
}
