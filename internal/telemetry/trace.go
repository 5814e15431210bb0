package telemetry

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing: a lightweight, stdlib-only span facility for the per-epoch
// pipeline. One Trace covers one epoch's journey through the monitor
// (ingest → filter → summarize → fingerprint → match → advise); Spans nest
// parent-child via an open-span stack, carry integer attributes (row and
// machine counts, candidate counts), and completed traces land in a bounded
// ring buffer the /traces endpoint snapshots.
//
// Like the rest of the package, tracing follows the nil-is-disabled
// convention, but with a harder guarantee: with a nil Tracer the entire
// span path — StartTrace, StartSpan, SetAttr, End — is a zero-allocation
// no-op (verified by TestDisabledTracingZeroAlloc), so the monitor hot path
// can be instrumented unconditionally.
//
// Concurrency: a Tracer is safe for concurrent use — many goroutines may
// each build their own Trace and End them concurrently; only End touches
// the shared ring, under the Tracer's mutex. One Trace (and its Spans) is
// single-goroutine, matching the Monitor's feeding-goroutine contract.

// Attr is one integer attribute attached to a span or trace — counts and
// sizes, deliberately not free-form strings, so recording one never formats.
type Attr struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
}

// EpochTraceID derives the fleet-wide distributed trace ID for an epoch.
// Every process in the fleet computes the same ID from the epoch number
// alone (a splitmix64-style bit mix), so aggregator observe_shard traces
// and the coordinator merge_epoch trace stitch into one distributed trace
// with zero coordination and nothing extra on the wire beyond the frame's
// epoch. The mix keeps IDs well-spread (epoch 0 is not trace 0) so they
// read as opaque trace IDs, and is injective over int64 inputs.
func EpochTraceID(epoch int64) uint64 {
	z := uint64(epoch) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Tracer owns the ring buffer of the most recently completed traces.
type Tracer struct {
	capacity int
	nextID   atomic.Uint64

	mu    sync.Mutex
	ring  []TraceSnapshot // fixed-capacity circular buffer
	pos   int             // next write slot
	count uint64          // total traces ever completed
}

// NewTracer returns a tracer retaining the capacity most recently completed
// traces. A capacity below 1 returns nil — the disabled tracer, on which
// every tracing call is a zero-allocation no-op.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		return nil
	}
	return &Tracer{capacity: capacity, ring: make([]TraceSnapshot, 0, capacity)}
}

// Enabled reports whether traces are actually recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Capacity reports the ring size (0 when disabled).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.capacity
}

// Total reports how many traces have completed since construction,
// including ones the ring has since evicted.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// span is the in-flight representation of one pipeline stage.
type span struct {
	name   string
	parent int // index into Trace.spans; -1 = root
	start  time.Time
	end    time.Time
	attrs  []Attr
}

// Trace is one in-flight trace: a named root with nested spans. Build it
// with StartSpan/End calls and finish with End, which files the completed
// trace into the tracer's ring. All methods are no-ops on a nil receiver.
type Trace struct {
	tracer  *Tracer
	id      uint64
	traceID uint64 // cross-process trace context; 0 = local-only
	name    string
	start   time.Time
	attrs   []Attr
	spans   []span
	open    []int // stack of started-but-unended span indices
}

// StartTrace begins a trace; nil (a no-op trace) on a disabled tracer.
func (t *Tracer) StartTrace(name string) *Trace {
	if t == nil {
		return nil
	}
	return &Trace{
		tracer: t,
		id:     t.nextID.Add(1),
		name:   name,
		start:  time.Now(),
	}
}

// StartTraceID begins a trace carrying an explicit cross-process trace ID
// (typically EpochTraceID). Traces in different processes started with the
// same ID are fragments of one distributed trace; /traces consumers join
// them on TraceID. Returns nil on a disabled tracer.
func (t *Tracer) StartTraceID(name string, traceID uint64) *Trace {
	tr := t.StartTrace(name)
	if tr != nil {
		tr.traceID = traceID
	}
	return tr
}

// TraceID returns the propagated cross-process trace ID (0 when the trace
// is local-only or nil).
func (tr *Trace) TraceID() uint64 {
	if tr == nil {
		return 0
	}
	return tr.traceID
}

// SetAttr attaches an integer attribute to the trace itself. Re-setting a
// key overwrites it — multiple pipeline layers annotate the same trace
// (the coordinator and the monitor both stamp "epoch") and the snapshot
// should carry each key once.
func (tr *Trace) SetAttr(key string, value int64) {
	if tr == nil {
		return
	}
	for i := range tr.attrs {
		if tr.attrs[i].Key == key {
			tr.attrs[i].Value = value
			return
		}
	}
	tr.attrs = append(tr.attrs, Attr{Key: key, Value: value})
}

// Span is a handle to one started span within a trace. The zero of the
// disabled path is a nil *Span; all methods are no-ops on it.
type Span struct {
	tr  *Trace
	idx int
}

// StartSpan opens a new span nested under the innermost span still open
// (or under the trace root when none is). Returns nil on a nil trace.
func (tr *Trace) StartSpan(name string) *Span {
	if tr == nil {
		return nil
	}
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	idx := len(tr.spans)
	tr.spans = append(tr.spans, span{name: name, parent: parent, start: time.Now()})
	tr.open = append(tr.open, idx)
	return &Span{tr: tr, idx: idx}
}

// SetAttr attaches an integer attribute to the span.
func (s *Span) SetAttr(key string, value int64) {
	if s == nil {
		return
	}
	sp := &s.tr.spans[s.idx]
	sp.attrs = append(sp.attrs, Attr{Key: key, Value: value})
}

// End closes the span. Ending out of order is tolerated: the span is
// removed from wherever it sits in the open stack, so a forgotten inner
// End cannot corrupt later parentage. Ending twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	tr := s.tr
	sp := &tr.spans[s.idx]
	if !sp.end.IsZero() {
		return
	}
	sp.end = time.Now()
	for i := len(tr.open) - 1; i >= 0; i-- {
		if tr.open[i] == s.idx {
			tr.open = append(tr.open[:i], tr.open[i+1:]...)
			break
		}
	}
}

// CompletedSpans snapshots the spans that have already ended, in start
// order, with offsets relative to the trace start. Spans still open (and
// their not-yet-meaningful durations) are skipped; a completed span whose
// parent is still open is re-parented to its nearest completed ancestor.
// This is the wire form an aggregator embeds in a fleet frame before the
// ship span — which is by definition still open — begins. Nil-safe.
func (tr *Trace) CompletedSpans() []SpanSnapshot {
	if tr == nil {
		return nil
	}
	remap := make([]int, len(tr.spans))
	out := make([]SpanSnapshot, 0, len(tr.spans))
	for i, sp := range tr.spans {
		if sp.end.IsZero() {
			remap[i] = -1
			continue
		}
		remap[i] = len(out)
		parent := sp.parent
		for parent >= 0 && remap[parent] < 0 {
			parent = tr.spans[parent].parent
		}
		if parent >= 0 {
			parent = remap[parent]
		}
		out = append(out, SpanSnapshot{
			Name:               sp.name,
			Parent:             parent,
			StartOffsetSeconds: sp.start.Sub(tr.start).Seconds(),
			DurationSeconds:    sp.end.Sub(sp.start).Seconds(),
			Attrs:              append([]Attr(nil), sp.attrs...),
		})
	}
	return out
}

// Graft splices a remote process's span snapshots into this trace under a
// new closed anchor span (nested under the innermost open span, like
// StartSpan). Remote offsets are preserved relative to this trace's start:
// the two fragments describe the same epoch, so aligning their trace
// starts yields per-shard timing breakdowns without requiring synchronized
// clocks — cross-process skew is reported separately (the coordinator
// attaches arrival-offset attrs to the anchor) rather than baked into span
// positions. Remote parent indices are rebased; out-of-range parents
// attach to the anchor.
func (tr *Trace) Graft(name string, remote []SpanSnapshot, attrs ...Attr) {
	if tr == nil {
		return
	}
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	anchor := len(tr.spans)
	tr.spans = append(tr.spans, span{
		name:   name,
		parent: parent,
		start:  tr.start,
		end:    tr.start,
		attrs:  append([]Attr(nil), attrs...),
	})
	base := len(tr.spans)
	minStart, maxEnd := time.Time{}, tr.start
	for _, rs := range remote {
		p := anchor
		if rs.Parent >= 0 && rs.Parent < len(remote) {
			p = base + rs.Parent
		}
		st := tr.start.Add(time.Duration(rs.StartOffsetSeconds * float64(time.Second)))
		en := st.Add(time.Duration(rs.DurationSeconds * float64(time.Second)))
		tr.spans = append(tr.spans, span{
			name:   rs.Name,
			parent: p,
			start:  st,
			end:    en,
			attrs:  append([]Attr(nil), rs.Attrs...),
		})
		if minStart.IsZero() || st.Before(minStart) {
			minStart = st
		}
		if en.After(maxEnd) {
			maxEnd = en
		}
	}
	if !minStart.IsZero() {
		tr.spans[anchor].start = minStart
	}
	tr.spans[anchor].end = maxEnd
}

// End completes the trace: any spans still open are closed at the trace's
// end time, and the finished trace is filed into the tracer's ring buffer,
// evicting the oldest entry once the ring is full. Ending twice files once.
func (tr *Trace) End() {
	if tr == nil || tr.tracer == nil {
		return
	}
	end := time.Now()
	for _, idx := range tr.open {
		tr.spans[idx].end = end
	}
	tr.open = nil
	snap := tr.snapshot(end)
	t := tr.tracer
	tr.tracer = nil // second End is a no-op
	t.mu.Lock()
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, snap)
	} else {
		t.ring[t.pos] = snap
	}
	t.pos = (t.pos + 1) % t.capacity
	t.count++
	t.mu.Unlock()
}

// SpanSnapshot is the immutable JSON form of one completed span.
type SpanSnapshot struct {
	Name string `json:"name"`
	// Parent is the index of the parent span within the trace's Spans
	// (-1 for spans directly under the trace root).
	Parent int `json:"parent"`
	// StartOffsetSeconds is the span start relative to the trace start.
	StartOffsetSeconds float64 `json:"start_offset_seconds"`
	DurationSeconds    float64 `json:"duration_seconds"`
	Attrs              []Attr  `json:"attrs,omitempty"`
}

// TraceSnapshot is the immutable JSON form of one completed trace.
type TraceSnapshot struct {
	ID uint64 `json:"id"`
	// TraceID is the propagated cross-process trace ID (hex; omitted for
	// local-only traces). Snapshots from different processes with the same
	// TraceID are fragments of one distributed trace.
	TraceID         string         `json:"trace_id,omitempty"`
	Name            string         `json:"name"`
	StartUnixNano   int64          `json:"start_unix_nano"`
	DurationSeconds float64        `json:"duration_seconds"`
	Attrs           []Attr         `json:"attrs,omitempty"`
	Spans           []SpanSnapshot `json:"spans"`
}

// snapshot freezes the trace. Attr slices move, not copy: the Trace is
// dead after End, so nothing else aliases them.
func (tr *Trace) snapshot(end time.Time) TraceSnapshot {
	snap := TraceSnapshot{
		ID:              tr.id,
		Name:            tr.name,
		StartUnixNano:   tr.start.UnixNano(),
		DurationSeconds: end.Sub(tr.start).Seconds(),
		Attrs:           tr.attrs,
		Spans:           make([]SpanSnapshot, len(tr.spans)),
	}
	if tr.traceID != 0 {
		snap.TraceID = strconv.FormatUint(tr.traceID, 16)
	}
	for i, sp := range tr.spans {
		snap.Spans[i] = SpanSnapshot{
			Name:               sp.name,
			Parent:             sp.parent,
			StartOffsetSeconds: sp.start.Sub(tr.start).Seconds(),
			DurationSeconds:    sp.end.Sub(sp.start).Seconds(),
			Attrs:              sp.attrs,
		}
	}
	return snap
}

// Snapshots returns the retained traces, most recently completed first.
// Always non-nil, so JSON callers render [] rather than null; empty on a
// disabled tracer.
func (t *Tracer) Snapshots() []TraceSnapshot {
	if t == nil {
		return []TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceSnapshot, 0, len(t.ring))
	// t.pos-1 is the most recent write; walk backwards.
	for i := 0; i < len(t.ring); i++ {
		out = append(out, t.ring[(t.pos-1-i+2*len(t.ring))%len(t.ring)])
	}
	return out
}
