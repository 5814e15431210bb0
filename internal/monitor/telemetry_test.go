package monitor

import (
	"bytes"
	"fmt"
	"log/slog"
	"math/rand"
	"strings"
	"testing"

	"dcfp/internal/core"
	"dcfp/internal/metrics"
	"dcfp/internal/sla"
	"dcfp/internal/telemetry"
)

// instrumentedTestbed is the standard testbed with a registry and an event
// log attached.
func instrumentedTestbed(t *testing.T) (*testbed, *telemetry.Registry, *bytes.Buffer) {
	t.Helper()
	tb := newTestbed(t)
	reg := telemetry.NewRegistry()
	var events bytes.Buffer
	cfg := tb.m.cfg
	cfg.Telemetry = reg
	cfg.Events = telemetry.NewEventLog(slog.New(slog.NewTextHandler(&events, nil)))
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb.m = m
	return tb, reg, &events
}

// TestMonitorTelemetryIntegration runs a full crisis lifecycle and asserts
// that the exported counters agree exactly with the report stream — the
// invariant the /metrics endpoint is trusted for.
func TestMonitorTelemetryIntegration(t *testing.T) {
	tb, reg, events := instrumentedTestbed(t)

	// Count ground truth from the reports themselves.
	detected := 0
	adviceCount := 0
	epochs := 0
	wasActive := false
	observe := func(rep *EpochReport) {
		epochs++
		if rep.CrisisActive && !wasActive {
			detected++
		}
		wasActive = rep.CrisisActive
		if rep.Advice != nil {
			adviceCount++
			if rep.Advice.Epoch != rep.Epoch {
				t.Fatalf("advice epoch %d != report epoch %d", rep.Advice.Epoch, rep.Epoch)
			}
		}
	}

	// Thresholds, then three crises with resolutions in between.
	rep := func(n int, effects map[int]float64) {
		tb.effects = effects
		for i := 0; i < n; i++ {
			observe(tb.step())
		}
	}
	rep(200, nil)
	rep(8, map[int]float64{tbLatency: 5, tbQueueA: 8})
	rep(3, nil)
	id := tb.m.Crises()[0].ID
	if err := tb.m.ResolveCrisis(id, "X"); err != nil {
		t.Fatal(err)
	}
	rep(50, nil)
	rep(8, map[int]float64{tbLatency: 5, tbQueueA: 8})
	rep(3, nil)
	recs := tb.m.Crises()
	if err := tb.m.ResolveCrisis(recs[len(recs)-1].ID, "X"); err != nil {
		t.Fatal(err)
	}
	rep(50, nil)
	rep(8, map[int]float64{tbLatency: 5, tbQueueA: 8})
	rep(3, nil)

	get := func(name string, labels ...telemetry.Label) uint64 {
		return reg.Counter(name, "", labels...).Value()
	}
	if got := get("dcfp_epochs_observed_total"); got != uint64(epochs) {
		t.Fatalf("epochs counter = %d, want %d", got, epochs)
	}
	if got := get("dcfp_crises_detected_total"); got != uint64(detected) {
		t.Fatalf("detected counter = %d, want %d", got, detected)
	}
	known := get("dcfp_advice_emitted_total", telemetry.Label{Key: "verdict", Value: "known"})
	unknown := get("dcfp_advice_emitted_total", telemetry.Label{Key: "verdict", Value: "unknown"})
	if known+unknown != uint64(adviceCount) {
		t.Fatalf("advice counters %d+%d != advice seen %d", known, unknown, adviceCount)
	}
	if known == 0 {
		t.Fatal("third X crisis should have produced known-verdict advice")
	}
	if got := get("dcfp_crises_resolved_total"); got != 2 {
		t.Fatalf("resolved counter = %d, want 2", got)
	}
	if got := reg.Histogram("dcfp_observe_epoch_seconds", "", telemetry.TimeBuckets()).Count(); got != uint64(epochs) {
		t.Fatalf("observe histogram count = %d, want %d", got, epochs)
	}

	// Stats must agree with the same ground truth.
	st := tb.m.Stats()
	if st.EpochsSeen != int64(epochs) {
		t.Fatalf("Stats.EpochsSeen = %d, want %d", st.EpochsSeen, epochs)
	}
	if st.CrisesStored != detected || st.CrisesLabeled != 2 {
		t.Fatalf("Stats crises = %d/%d, want %d/2", st.CrisesStored, st.CrisesLabeled, detected)
	}
	if st.CrisisActive {
		t.Fatal("Stats.CrisisActive after calm epochs")
	}
	if !st.ThresholdsReady || st.ThresholdAgeEpochs < 0 {
		t.Fatalf("Stats thresholds = %v/%d", st.ThresholdsReady, st.ThresholdAgeEpochs)
	}

	// The rendered exposition must include the headline series.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"dcfp_observe_epoch_seconds_bucket",
		"dcfp_crises_detected_total",
		`dcfp_monitor_stage_seconds_bucket{stage="quantile"`,
		`dcfp_monitor_stage_seconds_bucket{stage="sla"`,
		`dcfp_monitor_stage_seconds_bucket{stage="thresholds"`,
		`dcfp_monitor_stage_seconds_bucket{stage="selection"`,
		`dcfp_monitor_stage_seconds_bucket{stage="identify"`,
		"dcfp_crisis_store_size",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%.2000s", want, out)
		}
	}

	// Event log must carry the lifecycle.
	ev := events.String()
	for _, want := range []string{"crisis.detected", "advice.emitted", "crisis.ended",
		"crisis.resolved", "verdict=known"} {
		if !strings.Contains(ev, want) {
			t.Fatalf("event stream missing %q:\n%.2000s", want, ev)
		}
	}
}

// TestPerCrisisSelectionSpan: the crisis-closing epoch's one slow stage,
// feature selection, shows in /traces as a "selection" span carrying the work
// it did, on exactly the epochs that close a stored crisis; with no tracer
// the same calls cost nothing.
func TestPerCrisisSelectionSpan(t *testing.T) {
	tb := newTestbed(t)
	tracer := telemetry.NewTracer(512)
	cfg := tb.m.cfg
	cfg.Tracer = tracer
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb.m = m
	closing := map[int64]bool{}
	wasActive := false
	run := func(n int, effects map[int]float64) {
		tb.effects = effects
		for i := 0; i < n; i++ {
			rep := tb.step()
			if wasActive && !rep.CrisisActive {
				closing[int64(rep.Epoch)] = true
			}
			wasActive = rep.CrisisActive
		}
	}
	run(200, nil)
	run(8, map[int]float64{tbLatency: 5, tbQueueA: 8})
	run(40, nil)
	run(6, map[int]float64{tbLatency: 5, tbQueueB: 8})
	run(10, nil)
	if len(closing) != 2 {
		t.Fatalf("script closed %d crises, want 2", len(closing))
	}
	for _, snap := range tracer.Snapshots() {
		var epoch int64 = -1
		for _, a := range snap.Attrs {
			if a.Key == "epoch" {
				epoch = a.Value
			}
		}
		spans := 0
		for _, sp := range snap.Spans {
			if sp.Name != "selection" {
				continue
			}
			spans++
			attrs := map[string]int64{}
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value
			}
			// Every backtracking test is certified or decided exactly.
			certified, okCert := attrs["certified"]
			checks, ok := attrs["exact_checks"]
			// Screening skips column gradients on every scripted crisis,
			// never more than the path evaluated (iterations × metrics).
			screened := attrs["screened"]
			if len(attrs) != 8 || attrs["rows"] < 10*tbMachines || attrs["positives"] <= 0 || attrs["positives"] >= attrs["rows"] ||
				attrs["lambda_steps"] < 1 || attrs["iters_total"] < attrs["lambda_steps"] || attrs["selected"] < 1 || !ok || !okCert ||
				checks < 0 || certified < 0 || certified+checks <= 0 ||
				screened <= 0 || screened > attrs["iters_total"]*int64(cfg.Catalog.Len()) {
				t.Fatalf("epoch %d: selection span attrs %v", epoch, sp.Attrs)
			}
		}
		if (spans == 1) != closing[epoch] || spans > 1 {
			t.Fatalf("epoch %d (closes a crisis: %v) has %d selection spans", epoch, closing[epoch], spans)
		}
		delete(closing, epoch)
	}
	if len(closing) != 0 {
		t.Fatalf("no trace retained for closing epochs %v", closing)
	}

	var off *telemetry.Trace // what endCrisis gets from a nil Tracer
	if allocs := testing.AllocsPerRun(100, func() {
		sp := off.StartSpan("selection")
		sp.SetAttr("rows", 1)
		sp.End()
	}); allocs != 0 {
		t.Fatalf("selection span on a disabled tracer allocates %v times", allocs)
	}
}

// TestPerCrisisSelectionFailureIsReported: a crisis whose feature selection fails is
// stored without selected metrics (so fingerprinting skips it); that used to
// be silent, now the event stream says which crisis and why.
func TestPerCrisisSelectionFailureIsReported(t *testing.T) {
	tb, _, events := instrumentedTestbed(t)
	tb.quiet(200)
	tb.effects = map[int]float64{tbLatency: 5, tbQueueA: 8}
	for i := 0; i < 6; i++ {
		tb.step()
	}
	tb.effects = map[int]float64{}
	tb.step() // first calm epoch: the episode is still open
	if strings.Contains(events.String(), "selection.failed") {
		t.Fatal("selection.failed before any selection ran")
	}
	// Leave the open crisis only single-class samples.
	img := tb.m.st.Image()
	var calm [][]float64
	for i, row := range blockRows(img.Samples.X, len(img.Samples.Viol)) {
		if !img.Samples.Viol[i] {
			calm = append(calm, row)
		}
	}
	var fs core.SampleBuffer
	if err := fs.Append(calm, make([]bool, len(calm))); err != nil {
		t.Fatal(err)
	}
	img.Samples.X, img.Samples.Viol = fs.Block()
	if err := tb.m.st.Restore(img); err != nil {
		t.Fatal(err)
	}
	if rep := tb.step(); rep.CrisisActive {
		t.Fatal("second calm epoch must close the episode")
	}
	if storedCrises(tb.m) != 1 || tb.m.st.Crises[0].State.Top != nil {
		t.Fatalf("crisis stored %d times, top %v", storedCrises(tb.m), tb.m.st.Crises[0].State.Top)
	}
	ev := events.String()
	for _, want := range []string{"selection.failed", "crisis=crisis-001", fmt.Sprintf("rows=%d", len(calm)), "single class", "crisis.ended"} {
		if !strings.Contains(ev, want) {
			t.Fatalf("event stream missing %q:\n%s", want, ev)
		}
	}
	// A healthy crisis afterwards reports nothing.
	tb.quiet(20)
	tb.crisis("X", 8)
	if n := strings.Count(events.String(), "selection.failed"); n != 1 {
		t.Fatalf("%d selection.failed events, want only the first crisis's", n)
	}
	if tb.m.st.Crises[1].State.Top == nil {
		t.Fatal("second crisis selected no metrics")
	}
}

func TestMonitorCrisesRecords(t *testing.T) {
	tb, _, _ := instrumentedTestbed(t)
	if len(tb.m.Crises()) != 0 {
		t.Fatal("fresh monitor should have no crisis records")
	}
	tb.quiet(200)
	id, _ := tb.crisis("X", 8)
	recs := tb.m.Crises()
	if len(recs) != 1 || recs[0].ID != id || !recs[0].Stored || recs[0].Active {
		t.Fatalf("records = %+v", recs)
	}
	if err := tb.m.ResolveCrisis(id, "X"); err != nil {
		t.Fatal(err)
	}
	if recs := tb.m.Crises(); recs[0].Label != "X" {
		t.Fatalf("label not reflected: %+v", recs)
	}
}

// TestStatsActiveCrisis checks the mid-crisis snapshot fields used by
// /healthz and by cmd/dcfpd's ground-truth bookkeeping.
func TestStatsActiveCrisis(t *testing.T) {
	tb, _, _ := instrumentedTestbed(t)
	tb.quiet(200)
	tb.effects = map[int]float64{tbLatency: 5, tbQueueA: 8}
	rep := tb.step()
	if !rep.CrisisActive {
		t.Fatal("crisis not detected")
	}
	st := tb.m.Stats()
	if !st.CrisisActive || st.ActiveCrisisID == "" || st.ActiveCrisisStart != rep.CrisisStart {
		t.Fatalf("Stats = %+v", st)
	}
	recs := tb.m.Crises()
	if !recs[len(recs)-1].Active {
		t.Fatalf("active record not marked: %+v", recs)
	}
}

// benchMonitorConfig builds the production-shaped config (100 machines x 100
// metrics) and pre-generates sample epochs for the ObserveEpoch benchmark.
// Workers is pinned to 1: left at 0 it means GOMAXPROCS, so the allocs/op a
// benchmark records (the goroutine fan-out allocates ~15 objects an epoch)
// would depend on the core count of the box that wrote the baseline, under
// a name that does not say so. BenchmarkObserveEpochScale/*/workers4 covers
// the fan-out.
func benchMonitorConfig(b testing.TB, reg *telemetry.Registry, tracer *telemetry.Tracer) (Config, [][][]float64) {
	b.Helper()
	const nMetrics = 100
	const nMachines = 100
	names := make([]string, nMetrics)
	for i := range names {
		names[i] = fmt.Sprintf("metric_%03d", i)
	}
	cat, err := metrics.NewCatalog(names)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(cat, sla.Config{
		KPIs:           []sla.KPI{{Name: "metric_000", Metric: 0, Threshold: 1e12}},
		CrisisFraction: 0.10,
	})
	cfg.Workers = 1
	cfg.Telemetry = reg
	cfg.Tracer = tracer
	rng := rand.New(rand.NewSource(3))
	epochs := make([][][]float64, 64)
	for e := range epochs {
		rows := make([][]float64, nMachines)
		for i := range rows {
			row := make([]float64, nMetrics)
			for j := range row {
				row[j] = 100 + rng.NormFloat64()*10
			}
			rows[i] = row
		}
		epochs[e] = rows
	}
	return cfg, epochs
}

// benchMonitor is benchMonitorConfig plus construction.
func benchMonitor(b testing.TB, reg *telemetry.Registry, tracer *telemetry.Tracer) (*Monitor, [][][]float64) {
	b.Helper()
	cfg, epochs := benchMonitorConfig(b, reg, tracer)
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m, epochs
}

// BenchmarkObserveEpoch measures the per-epoch hot path with telemetry
// disabled (nil registry) and enabled; the enabled case must stay within 5%
// of the nil case (checked by eye in CI bench output; the instrumentation
// adds a handful of clock reads and atomic ops to a ~100k-sample epoch).
func BenchmarkObserveEpoch(b *testing.B) {
	b.Run("nil-registry", func(b *testing.B) {
		m, epochs := benchMonitor(b, nil, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.ObserveEpoch(epochs[i%len(epochs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("telemetry", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		m, epochs := benchMonitor(b, reg, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.ObserveEpoch(epochs[i%len(epochs)]); err != nil {
				b.Fatal(err)
			}
		}
		if got := reg.Histogram("dcfp_observe_epoch_seconds", "", telemetry.TimeBuckets()).Count(); got != uint64(b.N) {
			b.Fatalf("histogram count %d != b.N %d", got, b.N)
		}
	})
	b.Run("forecast", func(b *testing.B) {
		cfg, epochs := benchMonitorConfig(b, nil, nil)
		cfg.Forecast = DefaultForecastConfig()
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.ObserveEpoch(epochs[i%len(epochs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tracing", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		tracer := telemetry.NewTracer(64)
		m, epochs := benchMonitor(b, reg, tracer)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.ObserveEpoch(epochs[i%len(epochs)]); err != nil {
				b.Fatal(err)
			}
		}
		if got := tracer.Total(); got != uint64(b.N) {
			b.Fatalf("tracer recorded %d traces, want %d", got, b.N)
		}
	})
}
