package monitor

import (
	"math/rand"
	"testing"

	"dcfp/internal/core"
	"dcfp/internal/ident"
	"dcfp/internal/metrics"
	"dcfp/internal/sla"
)

// testbed drives a Monitor over a tiny synthetic datacenter: 20 machines,
// three metrics, one KPI. Crisis "X" multiplies latency and queueA on 60%
// of machines; crisis "Y" multiplies latency and queueB.
type testbed struct {
	t   *testing.T
	m   *Monitor
	rng *rand.Rand
	// effects currently applied: metric -> factor on the first 12 machines.
	effects map[int]float64
	// drift is a slow datacenter-wide AR(1) wobble per metric, so
	// fingerprints of two same-type crises are similar but not identical
	// (otherwise the max-same-distance threshold rule degenerates to 0).
	drift [3]float64
}

const (
	tbMachines = 20
	tbLatency  = 0
	tbQueueA   = 1
	tbQueueB   = 2
)

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	cat, err := metrics.NewCatalog([]string{"latency", "queueA", "queueB"})
	if err != nil {
		t.Fatal(err)
	}
	slaCfg := sla.Config{
		KPIs:           []sla.KPI{{Name: "latency", Metric: tbLatency, Threshold: 100}},
		CrisisFraction: 0.10,
	}
	cfg := DefaultConfig(cat, slaCfg)
	cfg.ThresholdRefreshEpochs = 48
	cfg.MinEpochsForThresholds = 96
	cfg.Selection = core.SelectionConfig{PerCrisisTopK: 2, NumRelevant: 3}
	cfg.Alpha = 0.5
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testbed{t: t, m: m, rng: rand.New(rand.NewSource(7)), effects: map[int]float64{}}
}

// step feeds one epoch and returns the report.
func (tb *testbed) step() *EpochReport {
	tb.t.Helper()
	samples := make([][]float64, tbMachines)
	base := []float64{50, 10, 10}
	for j := range tb.drift {
		tb.drift[j] = 0.9*tb.drift[j] + tb.rng.NormFloat64()*0.02
	}
	for i := range samples {
		row := make([]float64, 3)
		for j := range row {
			row[j] = base[j] * (1 + tb.drift[j]) * (1 + tb.rng.NormFloat64()*0.08)
			if f, ok := tb.effects[j]; ok && i < 12 {
				row[j] *= f
			}
		}
		samples[i] = row
	}
	rep, err := tb.m.ObserveEpoch(samples)
	if err != nil {
		tb.t.Fatal(err)
	}
	return rep
}

func (tb *testbed) quiet(n int) {
	tb.effects = map[int]float64{}
	for i := 0; i < n; i++ {
		if rep := tb.step(); rep.CrisisActive {
			tb.t.Fatalf("false crisis during quiet period at epoch %d", rep.Epoch)
		}
	}
}

// crisis injects a crisis of the given kind for dur epochs and returns the
// monitor's crisis ID and the per-epoch advice labels.
func (tb *testbed) crisis(kind string, dur int) (string, []string) {
	tb.t.Helper()
	switch kind {
	case "X":
		tb.effects = map[int]float64{tbLatency: 5, tbQueueA: 8}
	case "Y":
		tb.effects = map[int]float64{tbLatency: 5, tbQueueB: 8}
	default:
		tb.t.Fatalf("unknown kind %q", kind)
	}
	var id string
	var seq []string
	for i := 0; i < dur; i++ {
		rep := tb.step()
		if !rep.CrisisActive {
			tb.t.Fatalf("crisis not detected at injected epoch %d", rep.Epoch)
		}
		if rep.Advice != nil {
			id = rep.Advice.CrisisID
			seq = append(seq, rep.Advice.Emitted)
		}
	}
	// Two calm epochs close the episode; a third confirms idle.
	tb.effects = map[int]float64{}
	tb.step()
	tb.step()
	tb.step()
	return id, seq
}

func TestNewValidation(t *testing.T) {
	cat, _ := metrics.NewCatalog([]string{"a"})
	good := DefaultConfig(cat, sla.Config{KPIs: []sla.KPI{{Metric: 0, Threshold: 1}}, CrisisFraction: 0.1})
	if _, err := New(good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Catalog = nil
	if _, err := New(bad); err == nil {
		t.Fatal("want nil-catalog error")
	}
	bad = good
	bad.Alpha = 2
	if _, err := New(bad); err == nil {
		t.Fatal("want alpha error")
	}
	bad = good
	bad.ThresholdRefreshEpochs = 0
	if _, err := New(bad); err == nil {
		t.Fatal("want refresh error")
	}
	bad = good
	bad.RawPad = 0
	if _, err := New(bad); err == nil {
		t.Fatal("want pad error")
	}
	bad = good
	bad.MinEpochsForThresholds = 1
	if _, err := New(bad); err == nil {
		t.Fatal("want min-epochs error")
	}
	bad = good
	bad.SLA = sla.Config{}
	if _, err := New(bad); err == nil {
		t.Fatal("want sla error")
	}
}

func TestObserveEpochValidation(t *testing.T) {
	tb := newTestbed(t)
	if _, err := tb.m.ObserveEpoch(nil); err == nil {
		t.Fatal("want no-samples error")
	}
	if _, err := tb.m.ObserveEpoch([][]float64{{1}}); err == nil {
		t.Fatal("want row-width error")
	}
}

func TestMonitorLifecycle(t *testing.T) {
	tb := newTestbed(t)
	// Establish history and thresholds.
	tb.quiet(200)
	if tb.m.Epoch() != 200 {
		t.Fatalf("Epoch = %d", tb.m.Epoch())
	}

	// First crisis: no labeled history -> all advice unknown.
	id1, seq1 := tb.crisis("X", 8)
	if id1 == "" {
		t.Fatal("no advice emitted for first crisis")
	}
	for _, l := range seq1 {
		if l != ident.Unknown {
			t.Fatalf("first crisis advice = %v, want all unknown", seq1)
		}
	}
	stored, labeled := tb.m.KnownCrises()
	if stored != 1 || labeled != 0 {
		t.Fatalf("store = %d/%d", stored, labeled)
	}
	if err := tb.m.ResolveCrisis(id1, "X"); err != nil {
		t.Fatal(err)
	}
	if _, labeled := tb.m.KnownCrises(); labeled != 1 {
		t.Fatal("label not recorded")
	}

	// Second crisis of the same type; with one labeled crisis there are
	// no pairs, so it must stay unknown — then gets resolved.
	tb.quiet(50)
	id2, _ := tb.crisis("X", 8)
	if id2 == id1 || id2 == "" {
		t.Fatalf("crisis IDs: %q then %q", id1, id2)
	}
	if err := tb.m.ResolveCrisis(id2, "X"); err != nil {
		t.Fatal(err)
	}

	// Third X crisis: two labeled X crises exist; the online threshold
	// rule (only same-type pairs) should admit the match.
	tb.quiet(50)
	_, seq3 := tb.crisis("X", 8)
	identified := false
	for _, l := range seq3 {
		if l == "X" {
			identified = true
		}
		if l != "X" && l != ident.Unknown {
			t.Fatalf("mislabel %q in %v", l, seq3)
		}
	}
	if !identified {
		t.Fatalf("third X crisis not identified: %v", seq3)
	}

	// A type-Y crisis must not be labeled X.
	tb.quiet(50)
	_, seqY := tb.crisis("Y", 8)
	for _, l := range seqY {
		if l == "X" {
			t.Fatalf("Y crisis mislabeled X: %v", seqY)
		}
	}
}

func TestResolveCrisisErrors(t *testing.T) {
	tb := newTestbed(t)
	if err := tb.m.ResolveCrisis("nope", "X"); err == nil {
		t.Fatal("want unknown-crisis error")
	}
	tb.quiet(100)
	id, _ := tb.crisis("X", 6)
	if err := tb.m.ResolveCrisis(id, ""); err == nil {
		t.Fatal("want empty-label error")
	}
	if err := tb.m.ResolveCrisis(id, ident.Unknown); err == nil {
		t.Fatal("want x-label error")
	}
}

func TestAdviceBeforeThresholds(t *testing.T) {
	// A crisis before any thresholds exist yields nil advice but must not
	// crash or wedge the state machine.
	tb := newTestbed(t)
	tb.quiet(10)
	tb.effects = map[int]float64{tbLatency: 5}
	rep := tb.step()
	if !rep.CrisisActive {
		t.Fatal("crisis not detected")
	}
	if rep.Advice != nil {
		t.Fatal("advice without thresholds should be nil")
	}
	tb.effects = map[int]float64{}
	tb.step()
	tb.step()
	tb.step()
	if rep := tb.step(); rep.CrisisActive {
		t.Fatal("crisis state stuck")
	}
}

func TestAdviceDiagnosticFields(t *testing.T) {
	tb := newTestbed(t)
	tb.quiet(200)
	id1, _ := tb.crisis("X", 8)
	if err := tb.m.ResolveCrisis(id1, "X"); err != nil {
		t.Fatal(err)
	}
	tb.quiet(50)
	// Second crisis: one labeled candidate exists, so advice must carry
	// the nearest label and a finite distance even though the threshold
	// rule cannot admit it yet.
	tb.effects = map[int]float64{tbLatency: 5, tbQueueA: 8}
	var adv *Advice
	for i := 0; i < 6; i++ {
		rep := tb.step()
		if rep.Advice != nil {
			adv = rep.Advice
		}
	}
	tb.effects = map[int]float64{}
	tb.step()
	tb.step()
	tb.step()
	if adv == nil {
		t.Fatal("no advice")
	}
	if adv.Nearest != "X" {
		t.Fatalf("Nearest = %q", adv.Nearest)
	}
	if adv.Distance < 0 || adv.Distance > 100 {
		t.Fatalf("Distance = %v", adv.Distance)
	}
	if adv.Emitted != ident.Unknown {
		t.Fatalf("Emitted = %q; single labeled candidate yields no pairs", adv.Emitted)
	}
}
