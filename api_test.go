package dcfp_test

import (
	"bytes"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"dcfp"
)

// TestPublicAPIMonitorRoundTrip drives the full public surface the README
// advertises: catalog, SLA config, monitor, crisis detection, advice, and
// operator feedback — without touching internal packages.
func TestPublicAPIMonitorRoundTrip(t *testing.T) {
	cat, err := dcfp.NewCatalog([]string{"latency", "queue", "errors"})
	if err != nil {
		t.Fatal(err)
	}
	slaCfg := dcfp.SLAConfig{
		KPIs:           []dcfp.KPI{{Name: "latency", Metric: 0, Threshold: 100}},
		CrisisFraction: 0.10,
	}
	cfg := dcfp.DefaultMonitorConfig(cat, slaCfg)
	cfg.ThresholdRefreshEpochs = 48
	cfg.MinEpochsForThresholds = 96
	cfg.Selection = dcfp.SelectionConfig{PerCrisisTopK: 2, NumRelevant: 3}
	cfg.Alpha = 0.5
	mon, err := dcfp.NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	drift := make([]float64, 3)
	feed := func(n int, factors map[int]float64) (string, []string) {
		var id string
		var seq []string
		for i := 0; i < n; i++ {
			for j := range drift {
				drift[j] = 0.9*drift[j] + rng.NormFloat64()*0.02
			}
			rows := make([][]float64, 20)
			base := []float64{50, 10, 1}
			for m := range rows {
				row := make([]float64, 3)
				for j := range row {
					row[j] = base[j] * (1 + drift[j]) * (1 + rng.NormFloat64()*0.08)
					if f, ok := factors[j]; ok && m < 12 {
						row[j] *= f
					}
				}
				rows[m] = row
			}
			rep, err := mon.ObserveEpoch(rows)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Advice != nil {
				id = rep.Advice.CrisisID
				seq = append(seq, rep.Advice.Emitted)
			}
		}
		return id, seq
	}

	crisis := map[int]float64{0: 5, 1: 8}
	feed(200, nil) // history
	id1, _ := feed(8, crisis)
	feed(50, nil)
	if err := mon.ResolveCrisis(id1, "queue-overload"); err != nil {
		t.Fatal(err)
	}
	id2, _ := feed(8, crisis)
	feed(50, nil)
	if err := mon.ResolveCrisis(id2, "queue-overload"); err != nil {
		t.Fatal(err)
	}
	_, seq3 := feed(8, crisis)
	feed(10, nil)
	found := false
	for _, l := range seq3 {
		if l == "queue-overload" {
			found = true
		}
	}
	if !found {
		t.Fatalf("third recurrence not identified: %v", seq3)
	}
	stored, labeled := mon.KnownCrises()
	if stored != 3 || labeled != 2 {
		t.Fatalf("store = %d/%d", stored, labeled)
	}
}

// TestPublicAPIPrimitives exercises the lower-level exported pieces.
func TestPublicAPIPrimitives(t *testing.T) {
	if dcfp.EpochsPerDay != 96 || dcfp.NumQuantiles != 3 || dcfp.IdentificationEpochs != 5 {
		t.Fatal("constants wrong")
	}
	if dcfp.Unknown != "x" {
		t.Fatal("Unknown label wrong")
	}

	// The quantile estimator.
	est := dcfp.NewExactQuantiles()
	for i := 1; i <= 1000; i++ {
		est.Insert(float64(i))
	}
	med, err := est.Query(0.5)
	if err != nil || med < 499 || med > 502 {
		t.Fatalf("exact median = %v, %v", med, err)
	}

	// Track + thresholds + fingerprinter.
	track, err := dcfp.NewQuantileTrack(2)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 200; e++ {
		v := 100 + float64(e%10)
		if err := track.AppendEpoch([][3]float64{{v, v, v}, {v, v, v}}); err != nil {
			t.Fatal(err)
		}
	}
	th, err := dcfp.ComputeThresholds(track, func(dcfp.Epoch) bool { return true }, 199,
		dcfp.ThresholdConfig{ColdPercentile: 2, HotPercentile: 98, WindowEpochs: 200})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := dcfp.NewFingerprinter(th, dcfp.AllMetrics(2))
	if err != nil {
		t.Fatal(err)
	}
	if fp.Size() != 6 {
		t.Fatalf("Size = %d", fp.Size())
	}
	v, err := fp.CrisisFingerprint(track, 100, dcfp.DefaultSummaryRange())
	if err != nil || len(v) != 6 {
		t.Fatalf("CrisisFingerprint = %v, %v", v, err)
	}

	// Distances and thresholds.
	d, err := dcfp.Distance([]float64{0, 0}, []float64{3, 4})
	if err != nil || d != 5 {
		t.Fatalf("Distance = %v, %v", d, err)
	}
	thr, err := dcfp.OnlineThreshold([]dcfp.LabeledPair{{Distance: 1, Same: true}}, 0.1)
	if err != nil || thr != 1.1 {
		t.Fatalf("OnlineThreshold = %v, %v", thr, err)
	}

	// A stored crisis is a window of the track: one detected at 202 and
	// closed at 203, hot on metric 0 and cold on metric 1, is fingerprinted
	// from epochs 200..203 under the current thresholds.
	for e := 0; e < 4; e++ {
		if err := track.AppendEpoch([][3]float64{{500, 500, 500}, {5, 5, 5}}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := fp.CrisisFingerprintUpTo(track, 202, dcfp.DefaultSummaryRange(), 203)
	if want := []float64{1, 1, 1, -1, -1, -1}; err != nil || !slices.Equal(got, want) {
		t.Fatalf("stored fingerprint = %v, %v; want %v", got, err, want)
	}
	if _, err := fp.CrisisFingerprintUpTo(track, 210, dcfp.DefaultSummaryRange(), 212); err == nil {
		t.Fatal("fingerprint of a window past the track's end: want an error")
	}
}

// TestPublicAPITelemetry drives the observability surface: registry and
// event log attached to a monitor through the public config, the stats
// snapshot, and the HTTP handler serving the rendered exposition.
func TestPublicAPITelemetry(t *testing.T) {
	cat, err := dcfp.NewCatalog([]string{"latency", "queue"})
	if err != nil {
		t.Fatal(err)
	}
	slaCfg := dcfp.SLAConfig{
		KPIs:           []dcfp.KPI{{Name: "latency", Metric: 0, Threshold: 100}},
		CrisisFraction: 0.10,
	}
	cfg := dcfp.DefaultMonitorConfig(cat, slaCfg)
	cfg.MinEpochsForThresholds = 96
	reg := dcfp.NewTelemetryRegistry()
	var events bytes.Buffer
	cfg.Telemetry = reg
	cfg.Events = dcfp.NewEventLog(slog.New(slog.NewTextHandler(&events, nil)))
	mon, err := dcfp.NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	for i := 0; i < n; i++ {
		rows := [][]float64{{50, 10}, {51, 11}, {49, 9}, {50, 10}, {52, 12},
			{48, 8}, {50, 10}, {51, 11}, {49, 9}, {50, 10}}
		if _, err := mon.ObserveEpoch(rows); err != nil {
			t.Fatal(err)
		}
	}
	var st dcfp.MonitorStats = mon.Stats()
	if st.EpochsSeen != n || st.CrisisActive {
		t.Fatalf("Stats = %+v", st)
	}
	var recs []dcfp.CrisisRecord = mon.Crises()
	if len(recs) != 0 {
		t.Fatalf("crisis records = %+v", recs)
	}

	h := dcfp.TelemetryHandler(reg, func() any { return mon.Stats() }, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "dcfp_epochs_observed_total 120") {
		t.Fatalf("exposition missing epoch counter:\n%.1000s", rr.Body.String())
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "\"epochs_seen\": 120") {
		t.Fatalf("/healthz = %d %q", rr.Code, rr.Body.String())
	}
}

// TestPublicAPISimStream checks the continuous stream behind cmd/dcfpd.
func TestPublicAPISimStream(t *testing.T) {
	cfg := dcfp.DefaultSimStreamConfig(4)
	cfg.Machines = 20
	cfg.WarmupEpochs = 10
	s, err := dcfp.NewSimStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Catalog().Len() == 0 {
		t.Fatal("empty stream catalog")
	}
	rows, _, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 || len(rows[0]) != s.Catalog().Len() {
		t.Fatalf("rows shape %dx%d", len(rows), len(rows[0]))
	}
}

// TestPublicAPISimulator checks the simulator surface used by the examples.
func TestPublicAPISimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator round trip is seconds-long")
	}
	cfg := dcfp.SmallSimConfig(9)
	cfg.BackgroundDays = 5
	cfg.UnlabeledDays = 12
	cfg.LabeledDays = 45
	cfg.UnlabeledCrises = 2
	tr, err := dcfp.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.LabeledCrises()) != 19 {
		t.Fatalf("labeled crises = %d", len(tr.LabeledCrises()))
	}
	cat := dcfp.StandardCatalog()
	if cat.Len() != tr.Catalog.Len() {
		t.Fatal("catalog mismatch")
	}
	slaCfg, err := dcfp.StandardSLA(cat)
	if err != nil || len(slaCfg.KPIs) != 3 {
		t.Fatalf("StandardSLA = %+v, %v", slaCfg, err)
	}
}
