package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"

	"dcfp/internal/alert"
	"dcfp/internal/dcsim"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
	"dcfp/internal/telemetry"
)

// TestEarlyWarningAcceptance is the issue's acceptance run: a seeded
// 420-epoch trace with injected crises, forecast stage and alert engine on.
// A forecast-driven alert must fire at least 3 epochs before the monitor's
// own detection epoch, the scoreboard must record the warning as a hit with
// a negative TTI observation, and the alert must later resolve.
func TestEarlyWarningAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("420-epoch run")
	}
	const seed, maxEpochs, resolveAfter = 42, 420, 24

	reg := telemetry.NewRegistry()
	scfg := dcsim.DefaultStreamConfig(seed)
	scfg.Machines = 30
	scfg.WarmupEpochs = 96
	scfg.MeanGapEpochs = 96
	stream, err := dcsim.NewStream(scfg)
	if err != nil {
		t.Fatal(err)
	}
	// Zero fault rates: a clean passthrough, so the run is deterministic.
	inj, err := dcsim.NewFaultInjector(stream, dcsim.FaultConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	mcfg := monitor.DefaultConfig(stream.Catalog(), stream.SLA())
	mcfg.MinEpochsForThresholds = 96
	mcfg.Telemetry = reg
	mcfg.ExpectedMachines = scfg.Machines
	mcfg.Forecast = monitor.DefaultForecastConfig()
	// Notifications arrive synchronously from Eval inside d.step, so a
	// plain slice needs no locking once the run is over.
	var notes []alert.Notification
	c := defaultConfig()
	c.resolveAfter, c.historyRaw = resolveAfter, maxEpochs
	d, err := newDaemon(c, mcfg, func(n alert.Notification) { notes = append(notes, n) })
	if err != nil {
		t.Fatal(err)
	}

	for inj.Stats().Epochs < maxEpochs {
		ep, err := inj.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.step(ep); err != nil {
			t.Fatal(err)
		}
	}

	// Find the monitor's first detection (the crisis-active alert fires on
	// the detection epoch itself: the gauge is set before Eval runs).
	detection := metrics.Epoch(-1)
	for _, n := range notes {
		if n.Rule == "crisis-active" && n.State == alert.StateFiring {
			detection = n.Epoch
			break
		}
	}
	if detection < 0 {
		t.Fatal("no crisis detected in 420 epochs; the acceptance run is vacuous")
	}

	// The forecast alert must have led it by >= 3 epochs and later resolved.
	warned := metrics.Epoch(-1)
	resolved := false
	for _, n := range notes {
		if n.Rule != "forecast-risk-high" {
			continue
		}
		if n.State == alert.StateFiring && n.Epoch < detection && warned < 0 {
			warned = n.Epoch
		}
		if n.State == alert.StateResolved && n.Epoch > detection {
			resolved = true
		}
	}
	if warned < 0 {
		t.Fatalf("forecast alert never fired before the detection at epoch %d", detection)
	}
	if lead := detection - warned; lead < 3 {
		t.Fatalf("forecast alert led detection by %d epochs (warned %d, detected %d), want >= 3",
			lead, warned, detection)
	}
	if !resolved {
		t.Fatal("forecast alert never resolved after the crisis")
	}

	// The scoreboard must have scored the episode as a hit with lead >= 3.
	st := d.score.State()
	if st.ForecastHits < 1 {
		t.Fatalf("scoreboard forecast hits = %d, want >= 1 (state %+v)", st.ForecastHits, st)
	}
	deep := uint64(0)
	for i := 2; i < len(st.ForecastLeadEpochs); i++ {
		deep += st.ForecastLeadEpochs[i]
	}
	if deep == 0 {
		t.Fatalf("no forecast hit with lead >= 3 in lead histogram %v", st.ForecastLeadEpochs)
	}

	// And the negative TTI must be visible in the exported histogram: the
	// cumulative le="-3" bucket of dcfp_ident_tti_epochs is non-zero.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`dcfp_ident_tti_epochs_bucket\{le="-3"\} (\d+)`).FindSubmatch(buf.Bytes())
	if m == nil {
		t.Fatal("dcfp_ident_tti_epochs has no le=\"-3\" bucket in the exposition")
	}
	if n, _ := strconv.Atoi(string(m[1])); n < 1 {
		t.Fatalf(`dcfp_ident_tti_epochs_bucket{le="-3"} = %d, want >= 1`, n)
	}

	// History kept the whole risk trajectory for /api/history replay.
	if series, ok := d.hist.Query("dcfp_forecast_risk", 0); !ok || len(series) == 0 {
		t.Fatal("metric history has no dcfp_forecast_risk series")
	}
}
