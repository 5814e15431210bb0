// Package telemetry is the stdlib-only observability substrate of the dcfp
// pipeline: a concurrency-safe Registry of counters, gauges and fixed-bucket
// latency histograms rendered in the Prometheus text exposition format, a
// structured crisis-lifecycle event log backed by log/slog, and an HTTP
// handler bundling /metrics, /healthz, /crises and net/http/pprof.
//
// The package is designed so uninstrumented library callers pay ~zero cost:
// every constructor and method is nil-safe. A nil *Registry hands out nil
// metric handles, and Inc/Set/Observe on a nil handle is a no-op branch —
// the hot path (Monitor.ObserveEpoch) only calls time.Now when a registry
// is actually attached.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one constant key/value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// kind discriminates the metric families a Registry holds.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry is a concurrency-safe collection of metric families. The zero
// value is not usable; construct with NewRegistry. A nil *Registry is a
// valid "telemetry disabled" registry: it hands out nil metric handles.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family groups all label variants (series) of one metric name.
type family struct {
	name   string
	help   string
	kind   kind
	bounds []float64 // histogram bucket upper bounds

	mu     sync.Mutex
	series map[string]*series
}

// series is one (name, labels) time series.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter named name with the given constant labels,
// registering it on first use. Returns nil (a no-op handle) on a nil
// registry. Panics on an invalid name/labels or if name is already
// registered as a different metric kind — these are programming errors
// surfaced at startup, mirroring the Prometheus client convention.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, kindCounter, nil, labels)
	return s.c
}

// Gauge returns the gauge named name with the given constant labels,
// registering it on first use. Nil-safe like Counter.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, kindGauge, nil, labels)
	return s.g
}

// Histogram returns the histogram named name with the given bucket upper
// bounds (strictly increasing; an implicit +Inf bucket is always appended)
// and constant labels, registering it on first use. Nil-safe like Counter.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not strictly increasing at %d", name, i))
		}
	}
	s := r.lookup(name, help, kindHistogram, buckets, labels)
	return s.h
}

// lookup finds or creates the (name, labels) series; get-or-create so that
// repeated registration returns the same underlying metric.
func (r *Registry) lookup(name, help string, k kind, buckets []float64, labels []Label) *series {
	mustValidName(name)
	for _, l := range labels {
		mustValidLabelKey(l.Key)
	}
	r.mu.Lock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, bounds: append([]float64(nil), buckets...),
			series: make(map[string]*series)}
		r.families[name] = f
	}
	r.mu.Unlock()
	if f.kind != k {
		panic(fmt.Sprintf("telemetry: %q already registered as %s, requested %s", name, f.kind, k))
	}

	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labels: sortedLabels(labels)}
	switch k {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(f.bounds)
	}
	f.series[key] = s
	return s
}

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Add adds d (atomic compare-and-swap loop).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histShards spreads histogram observations over independently locked
// shards so concurrent hot paths do not serialize on one mutex; the shard
// is picked round-robin with a single atomic increment.
const histShards = 8

// Histogram accumulates observations into fixed buckets (upper bounds set
// at registration, +Inf implicit). Safe for concurrent use; no-op on nil.
type Histogram struct {
	bounds []float64
	next   atomic.Uint32
	shards [histShards]histShard
}

type histShard struct {
	mu     sync.Mutex
	counts []uint64
	sum    float64
	n      uint64
	// pad the shard to its own cache line so neighbouring shard mutexes
	// do not false-share under concurrent Observe storms.
	_ [32]byte
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds}
	for i := range h.shards {
		h.shards[i].counts = make([]uint64, len(bounds))
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= le
	s := &h.shards[h.next.Add(1)%histShards]
	s.mu.Lock()
	if i < len(s.counts) {
		s.counts[i]++
	}
	s.sum += v
	s.n++
	s.mu.Unlock()
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0).Seconds())
	}
}

// snapshot merges the shards into per-bucket counts, sum and total count.
func (h *Histogram) snapshot() (counts []uint64, sum float64, n uint64) {
	counts = make([]uint64, len(h.bounds))
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		for j, c := range s.counts {
			counts[j] += c
		}
		sum += s.sum
		n += s.n
		s.mu.Unlock()
	}
	return counts, sum, n
}

// Count reports the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	_, _, n := h.snapshot()
	return n
}

// Sum reports the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	_, s, _ := h.snapshot()
	return s
}

// TimeBuckets is the default latency bucket ladder, spanning 1µs–2.5s —
// wide enough for both the per-epoch monitor fast path (µs–ms) and full
// threshold recomputations (ms–s).
func TimeBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
	}
}

// SeriesValue is one sampled (name, labels, value) point of a registry:
// the unit of Gather's output and of History's per-epoch sampling.
type SeriesValue struct {
	Name   string
	Labels []Label
	Value  float64
}

// Gather samples every counter and gauge series into a flat, deterministic
// (name-then-labels sorted) slice. Histograms contribute two synthetic
// series, <name>_count and <name>_sum — the parts with a meaningful scalar
// trajectory. A nil registry gathers nothing. Gather allocates its result
// and is meant for once-per-epoch sampling (History), not the hot path.
func (r *Registry) Gather() []SeriesValue {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	var out []SeriesValue
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch f.kind {
			case kindCounter:
				out = append(out, SeriesValue{Name: f.name, Labels: s.labels, Value: float64(s.c.Value())})
			case kindGauge:
				out = append(out, SeriesValue{Name: f.name, Labels: s.labels, Value: s.g.Value()})
			case kindHistogram:
				_, sum, n := s.h.snapshot()
				out = append(out,
					SeriesValue{Name: f.name + "_count", Labels: s.labels, Value: float64(n)},
					SeriesValue{Name: f.name + "_sum", Labels: s.labels, Value: sum})
			}
		}
		f.mu.Unlock()
	}
	return out
}

// Value reads the current value of one counter or gauge series without
// registering anything: ok is false when the family or the exact label set
// does not exist. Histogram families answer through their synthetic
// <name>_count and <name>_sum series, matching Gather. This is the alert
// engine's read path — rules probe series that instrumentation may not have
// created yet, and probing must not create them.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	if r == nil {
		return 0, false
	}
	wantCount, wantSum := false, false
	r.mu.RLock()
	f, ok := r.families[name]
	if !ok {
		if base, found := strings.CutSuffix(name, "_count"); found {
			f, ok = r.families[base]
			wantCount = ok && f.kind == kindHistogram
			ok = wantCount
		} else if base, found := strings.CutSuffix(name, "_sum"); found {
			f, ok = r.families[base]
			wantSum = ok && f.kind == kindHistogram
			ok = wantSum
		}
	}
	r.mu.RUnlock()
	if !ok {
		return 0, false
	}
	key := labelKey(labels)
	f.mu.Lock()
	s, ok := f.series[key]
	f.mu.Unlock()
	if !ok {
		return 0, false
	}
	switch {
	case wantCount:
		return float64(s.h.Count()), true
	case wantSum:
		return s.h.Sum(), true
	}
	switch f.kind {
	case kindCounter:
		return float64(s.c.Value()), true
	case kindGauge:
		return s.g.Value(), true
	}
	return 0, false
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4), families and series in deterministic
// sorted order. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)

	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sers := make([]*series, 0, len(keys))
	for _, k := range keys {
		sers = append(sers, f.series[k])
	}
	f.mu.Unlock()

	for _, s := range sers {
		switch f.kind {
		case kindCounter:
			b.WriteString(f.name)
			writeLabels(b, s.labels)
			fmt.Fprintf(b, " %d\n", s.c.Value())
		case kindGauge:
			b.WriteString(f.name)
			writeLabels(b, s.labels)
			fmt.Fprintf(b, " %s\n", formatFloat(s.g.Value()))
		case kindHistogram:
			counts, sum, n := s.h.snapshot()
			cum := uint64(0)
			for i, bound := range f.bounds {
				cum += counts[i]
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(b, append(append([]Label(nil), s.labels...),
					Label{"le", formatFloat(bound)}))
				fmt.Fprintf(b, " %d\n", cum)
			}
			b.WriteString(f.name)
			b.WriteString("_bucket")
			writeLabels(b, append(append([]Label(nil), s.labels...), Label{"le", "+Inf"}))
			fmt.Fprintf(b, " %d\n", n)
			b.WriteString(f.name)
			b.WriteString("_sum")
			writeLabels(b, s.labels)
			fmt.Fprintf(b, " %s\n", formatFloat(sum))
			b.WriteString(f.name)
			b.WriteString("_count")
			writeLabels(b, s.labels)
			fmt.Fprintf(b, " %d\n", n)
		}
	}
}

func writeLabels(b *strings.Builder, labels []Label) {
	if len(labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslash and newline per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes backslash, double-quote and newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// labelKey is the canonical identity of a label set within a family.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := sortedLabels(labels)
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Key)
		b.WriteByte('\xff')
		b.WriteString(l.Value)
		b.WriteByte('\xfe')
	}
	return b.String()
}

func mustValidName(name string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
}

func mustValidLabelKey(key string) {
	if !validLabelKey(key) {
		panic(fmt.Sprintf("telemetry: invalid label key %q", key))
	}
}

// validMetricName implements [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelKey implements [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelKey(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
