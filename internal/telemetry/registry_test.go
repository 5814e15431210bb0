package telemetry

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheus is the table-driven exposition-format suite: name and
// help escaping, label rendering, histogram cumulative buckets and the
// _sum/_count series, and deterministic ordering.
func TestWritePrometheus(t *testing.T) {
	cases := []struct {
		name  string
		setup func(r *Registry)
		want  []string // exact lines that must appear, in this relative order
	}{
		{
			name: "counter basic",
			setup: func(r *Registry) {
				r.Counter("dcfp_epochs_total", "Epochs observed.").Add(3)
			},
			want: []string{
				"# HELP dcfp_epochs_total Epochs observed.",
				"# TYPE dcfp_epochs_total counter",
				"dcfp_epochs_total 3",
			},
		},
		{
			name: "help escaping",
			setup: func(r *Registry) {
				r.Counter("c_total", "line one\nback\\slash").Inc()
			},
			want: []string{
				`# HELP c_total line one\nback\\slash`,
				"c_total 1",
			},
		},
		{
			name: "label value escaping",
			setup: func(r *Registry) {
				r.Counter("c_total", "h", Label{"path", `a"b\c` + "\n"}).Inc()
			},
			want: []string{
				`c_total{path="a\"b\\c\n"} 1`,
			},
		},
		{
			name: "labeled series sorted by label key and value",
			setup: func(r *Registry) {
				r.Counter("stage_total", "h", Label{"stage", "sla"}).Add(2)
				r.Counter("stage_total", "h", Label{"stage", "quantile"}).Add(5)
			},
			want: []string{
				`stage_total{stage="quantile"} 5`,
				`stage_total{stage="sla"} 2`,
			},
		},
		{
			name: "gauge formatting",
			setup: func(r *Registry) {
				r.Gauge("g", "h").Set(2.5)
				r.Gauge("g2", "h").SetInt(-7)
			},
			want: []string{
				"# TYPE g gauge",
				"g 2.5",
				"g2 -7",
			},
		},
		{
			name: "histogram cumulative buckets, +Inf, sum and count",
			setup: func(r *Registry) {
				h := r.Histogram("lat_seconds", "h", []float64{0.1, 0.5, 1})
				h.Observe(0.0625) // bucket le=0.1 (exact binary float)
				h.Observe(0.0625) // bucket le=0.1
				h.Observe(0.5)    // boundary lands in le=0.5
				h.Observe(3)      // only +Inf
			},
			want: []string{
				"# TYPE lat_seconds histogram",
				`lat_seconds_bucket{le="0.1"} 2`,
				`lat_seconds_bucket{le="0.5"} 3`,
				`lat_seconds_bucket{le="1"} 3`,
				`lat_seconds_bucket{le="+Inf"} 4`,
				"lat_seconds_sum 3.625",
				"lat_seconds_count 4",
			},
		},
		{
			name: "histogram with constant labels keeps le last",
			setup: func(r *Registry) {
				r.Histogram("stage_seconds", "h", []float64{1}, Label{"stage", "identify"}).Observe(0.5)
			},
			want: []string{
				`stage_seconds_bucket{stage="identify",le="1"} 1`,
				`stage_seconds_bucket{stage="identify",le="+Inf"} 1`,
				`stage_seconds_sum{stage="identify"} 0.5`,
				`stage_seconds_count{stage="identify"} 1`,
			},
		},
		{
			name: "families sorted by name",
			setup: func(r *Registry) {
				r.Counter("zzz_total", "h").Inc()
				r.Counter("aaa_total", "h").Inc()
			},
			want: []string{
				"aaa_total 1",
				"zzz_total 1",
			},
		},
		{
			name: "small float renders in exponent form",
			setup: func(r *Registry) {
				r.Histogram("t_seconds", "h", []float64{1e-6, 1}).Observe(2)
			},
			want: []string{
				`t_seconds_bucket{le="1e-06"} 0`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			tc.setup(r)
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			got := buf.String()
			pos := -1
			for _, line := range tc.want {
				idx := indexLine(got, line)
				if idx < 0 {
					t.Fatalf("missing line %q in output:\n%s", line, got)
				}
				if idx < pos {
					t.Fatalf("line %q out of order in output:\n%s", line, got)
				}
				pos = idx
			}
		})
	}
}

// indexLine finds an exact line match and returns its index, -1 if absent.
func indexLine(s, line string) int {
	for i, l := range strings.Split(s, "\n") {
		if l == line {
			return i
		}
	}
	return -1
}

func TestGetOrCreateReturnsSameMetric(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "h", Label{"k", "v"})
	b := r.Counter("c_total", "h", Label{"k", "v"})
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	other := r.Counter("c_total", "h", Label{"k", "w"})
	if a == other {
		t.Fatal("different label value must return a different series")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("shared counter value = %d", b.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on kind mismatch")
		}
	}()
	r.Gauge("m", "h")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9abc", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("want panic for name %q", bad)
				}
			}()
			r.Counter(bad, "h")
		}()
	}
}

// TestNilSafety: a nil registry hands out nil handles and every operation
// on them is a no-op — the "telemetry disabled" contract library code
// relies on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h_seconds", "h", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(2)
	g.SetInt(3)
	h.Observe(0.5)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read zero")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	var e *EventLog
	if e.Enabled() {
		t.Fatal("nil event log must report disabled")
	}
	e.Event("x")
	e.CrisisDetected(1, "c")
	e.AdviceEmitted(1, "c", 0, "known", "l", "l", 0.1, 0.2, 3)
	e.CrisisEnded(2, "c", 1, true)
	e.CrisisResolved("c", "l")
	e.SimDay(1, 95, 0, 0)
	e.CrisisInjected("c", "B", 5, 8)
	if NewEventLog(nil) != nil {
		t.Fatal("NewEventLog(nil) must return nil")
	}
}

// TestRegistryConcurrency hammers counters, gauges and one histogram from
// many goroutines while rendering concurrently; correctness is checked via
// final totals and the -race detector.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hammer_total", "h")
			g := r.Gauge("hammer_gauge", "h")
			h := r.Histogram("hammer_seconds", "h", TimeBuckets())
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) * 1e-5)
				if i%500 == 0 {
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("hammer_total", "h").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("hammer_gauge", "h").Value(); got != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("hammer_seconds", "h", TimeBuckets()).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestEventLogAttrs(t *testing.T) {
	var buf bytes.Buffer
	e := NewEventLog(slog.New(slog.NewTextHandler(&buf, nil)))
	if !e.Enabled() {
		t.Fatal("want enabled")
	}
	e.CrisisDetected(42, "crisis-001")
	e.AdviceEmitted(43, "crisis-001", 1, "known", "db-overload", "db-overload", 0.5, 1.2, 4)
	out := buf.String()
	for _, want := range []string{"crisis.detected", "epoch=42", "crisis=crisis-001",
		"advice.emitted", "verdict=known", "candidates=4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("event output missing %q:\n%s", want, out)
		}
	}
}
