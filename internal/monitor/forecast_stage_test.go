package monitor

import (
	"bytes"
	"reflect"
	"testing"

	"dcfp/internal/metrics"
	"dcfp/internal/telemetry"
)

// forecastTestbed is the shared testbed with the forecast stage enabled and
// tuned for the tiny synthetic datacenter: with only 3 metrics x 5 quantiles
// = 15 summary cells, the extreme per-epoch quantiles over 20 machines are so
// noisy that a third of the cells sit outside their fitted thresholds in
// steady state. The band anchors (calibrated for ~100-metric fleets) are
// pushed far out so the tests exercise the near/trend components
// deterministically.
func newForecastTestbed(t *testing.T) *testbed {
	t.Helper()
	tb := newTestbed(t)
	cfg := tb.m.cfg
	cfg.Forecast = DefaultForecastConfig()
	cfg.Forecast.BandBaseline = 0.5
	cfg.Forecast.BandCrisis = 0.9
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb.m = m
	return tb
}

func TestForecastConfigValidation(t *testing.T) {
	tb := newTestbed(t)
	for _, mod := range []func(*ForecastConfig){
		func(c *ForecastConfig) { c.Horizon = -1 },
		func(c *ForecastConfig) { c.WarnThreshold = 1.5 },
		func(c *ForecastConfig) { c.TrendWindow = 1 },
		func(c *ForecastConfig) { c.NearFactor = 1.2 },
		func(c *ForecastConfig) { c.BandCrisis = 0.01 }, // below baseline
	} {
		cfg := tb.m.cfg
		cfg.Forecast = DefaultForecastConfig()
		mod(&cfg.Forecast)
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg.Forecast)
		}
	}
}

func TestForecastDisabledIsZero(t *testing.T) {
	tb := newTestbed(t)
	rep := tb.step()
	if rep.Forecast.Enabled || rep.Forecast.Risk != 0 {
		t.Fatalf("disabled stage produced %+v", rep.Forecast)
	}
}

// TestForecastWarnsBeforeCrisis ramps the KPI toward its SLA bound over
// several epochs: the near-violation and trend components must raise a
// warning before the SLA rule fires, and the detection must then carry a
// positive lead.
func TestForecastWarnsBeforeCrisis(t *testing.T) {
	tb := newForecastTestbed(t)
	tb.quiet(120) // establish thresholds, fill the trend window

	// Ramp latency on 60% of machines from baseline (50) toward the SLA
	// bound (100): these factors keep values under the bound, but from
	// ~1.6 the near-violation fraction (NearFactor 0.8 → 80) jumps past
	// the crisis fraction and risk must warn.
	warnedAt := metrics.Epoch(-1)
	for _, f := range []float64{1.2, 1.4, 1.5, 1.6, 1.65} {
		tb.effects = map[int]float64{tbLatency: f}
		rep := tb.step()
		if rep.CrisisActive {
			t.Fatalf("SLA crisis during sub-threshold ramp at factor %v", f)
		}
		if !rep.Forecast.Enabled {
			t.Fatal("forecast snapshot not enabled")
		}
		if rep.Forecast.Warning && warnedAt < 0 {
			warnedAt = rep.Epoch
		}
	}
	if warnedAt < 0 {
		t.Fatal("no forecast warning during pre-crisis ramp")
	}

	// Now breach the SLA: the detection epoch must resolve the episode
	// into a positive lead.
	tb.effects = map[int]float64{tbLatency: 5}
	rep := tb.step()
	if !rep.CrisisActive {
		t.Fatal("crisis not detected after breach")
	}
	if rep.Forecast.DetectionLead < 1 {
		t.Fatalf("detection lead %d, want >= 1 (warned at %d, detected at %d)",
			rep.Forecast.DetectionLead, warnedAt, rep.Epoch)
	}
	if rep.Advice == nil || rep.Advice.Forecast == nil {
		t.Fatal("advice missing forecast snapshot")
	}
	if rep.Advice.Forecast.DetectionLead != rep.Forecast.DetectionLead {
		t.Fatal("advice forecast snapshot disagrees with report")
	}
}

// TestForecastFalseAlarmExpires raises risk briefly with no crisis: after
// Horizon quiet epochs the episode must expire as a false alarm.
func TestForecastFalseAlarmExpires(t *testing.T) {
	tb := newForecastTestbed(t)
	tb.quiet(120)

	tb.effects = map[int]float64{tbLatency: 1.6}
	rep := tb.step()
	if rep.CrisisActive {
		t.Fatal("unexpected crisis at sub-threshold factor")
	}
	if !rep.Forecast.Warning {
		t.Fatalf("no warning at near-threshold factor: %+v", rep.Forecast)
	}

	tb.effects = map[int]float64{}
	sawFalseAlarm := false
	for i := 0; i < tb.m.cfg.Forecast.Horizon+tb.m.cfg.Forecast.TrendWindow+2; i++ {
		rep = tb.step()
		if rep.CrisisActive {
			t.Fatal("unexpected crisis")
		}
		if rep.Forecast.FalseAlarm {
			sawFalseAlarm = true
		}
	}
	if !sawFalseAlarm {
		t.Fatal("warning episode never expired as a false alarm")
	}
	if tb.m.fc.Warnings == 0 || tb.m.fc.FalseAlarms == 0 {
		t.Fatalf("stage counters warnings=%d falseAlarms=%d, want both > 0",
			tb.m.fc.Warnings, tb.m.fc.FalseAlarms)
	}
}

// TestForecastCheckpointRoundtrip checks the stage state survives
// checkpoint/restore mid-episode.
func TestForecastCheckpointRoundtrip(t *testing.T) {
	tb := newForecastTestbed(t)
	tb.quiet(120)
	tb.effects = map[int]float64{tbLatency: 1.6}
	rep := tb.step()
	if rep.CrisisActive {
		t.Fatal("unexpected crisis at sub-threshold factor")
	}
	if !rep.Forecast.Warning {
		t.Fatalf("no warning: %+v", rep.Forecast)
	}

	var buf bytes.Buffer
	if err := tb.m.WriteCheckpoint(&buf, CheckpointMeta{SourceEpoch: -1}); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	cfg := tb.m.cfg
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.ReadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if !m2.fc.Pending || !reflect.DeepEqual(m2.fc.ForecastState, tb.m.fc.ForecastState) {
		t.Fatalf("restored stage state %+v, want %+v", m2.fc.ForecastState, tb.m.fc.ForecastState)
	}
	// A monitor with the stage off restores the same checkpoint and saves
	// no forecast state of its own.
	cfg.Forecast = ForecastConfig{}
	off, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := off.ReadCheckpoint(bytes.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	if f := decodeCheckpoint(t, off, CheckpointMeta{}); f.State.Forecast != nil {
		t.Fatalf("a monitor without the forecast stage saved its state %+v", *f.State.Forecast)
	}
}

func TestForecastGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	tb := newForecastTestbed(t)
	cfg := tb.m.cfg
	cfg.Telemetry = reg
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb.m = m
	tb.quiet(120)
	tb.effects = map[int]float64{tbLatency: 1.6}
	tb.step()
	if v, ok := reg.Value("dcfp_forecast_risk"); !ok || v < 0.5 {
		t.Fatalf("dcfp_forecast_risk = %v (ok=%v), want >= 0.5", v, ok)
	}
	if v, ok := reg.Value("dcfp_forecast_warning"); !ok || v != 1 {
		t.Fatalf("dcfp_forecast_warning = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := reg.Value("dcfp_forecast_warnings_total"); !ok || v != 1 {
		t.Fatalf("dcfp_forecast_warnings_total = %v (ok=%v), want 1", v, ok)
	}
}

func TestScoreboardRecordForecast(t *testing.T) {
	reg := telemetry.NewRegistry()
	sb := NewScoreboard(reg)
	sb.RecordForecast(4, true)
	sb.RecordForecast(100, true) // clamps into the deepest bucket
	sb.RecordForecast(0, false)

	st := sb.State()
	if st.ForecastHits != 2 || st.ForecastFalseAlarms != 1 {
		t.Fatalf("hits=%d false=%d, want 2 and 1", st.ForecastHits, st.ForecastFalseAlarms)
	}
	if st.ForecastLeadEpochs[3] != 1 || st.ForecastLeadEpochs[MaxForecastLead-1] != 1 {
		t.Fatalf("lead histogram %v", st.ForecastLeadEpochs)
	}
	if v, ok := reg.Value("dcfp_ident_forecast_total", telemetry.Label{Key: "outcome", Value: "hit"}); !ok || v != 2 {
		t.Fatalf("hit counter = %v (ok=%v), want 2", v, ok)
	}

	// The negative TTI observations land in the pre-detection buckets.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`dcfp_ident_tti_epochs_bucket{le="-8"} 1`)) {
		t.Fatalf("TTI histogram missing the le=-8 pre-detection bucket:\n%s", buf.String())
	}

	// Roundtrip through SetState preserves the forecast ledger.
	sb2 := NewScoreboard(nil)
	sb2.SetState(st)
	st2 := sb2.State()
	if st2.ForecastHits != 2 || st2.ForecastFalseAlarms != 1 || st2.ForecastLeadEpochs[3] != 1 {
		t.Fatalf("SetState lost forecast ledger: %+v", st2)
	}
}
