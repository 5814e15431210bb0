package monitor

import (
	"fmt"
	"testing"

	"dcfp/internal/metrics"
	"dcfp/internal/sla"
)

// storedCrises is m's stored-crisis count.
func storedCrises(m *Monitor) int {
	n, _ := m.KnownCrises()
	return n
}

// TestStatsThresholdAgeConvention pins the threshold-age convention shared
// by Stats and the dcfp_threshold_age_epochs gauge: age is measured from
// the most recently observed epoch, not the next expected one. Stats used
// to report one epoch more than the gauge for the same state.
func TestStatsThresholdAgeConvention(t *testing.T) {
	tb, reg, _ := instrumentedTestbed(t)
	tb.quiet(100) // first refresh lands at epoch 96
	st := tb.m.Stats()
	if !st.ThresholdsReady {
		t.Fatal("thresholds not established after 100 epochs")
	}
	if tb.m.st.LastThresh != 96 {
		t.Fatalf("precondition: lastThresh = %d, want 96", tb.m.st.LastThresh)
	}
	// 100 epochs observed, the last at index 99, refreshed at 96 → age 3.
	if st.ThresholdAgeEpochs != 3 {
		t.Fatalf("Stats.ThresholdAgeEpochs = %d, want 3", st.ThresholdAgeEpochs)
	}
	gauge := reg.Gauge("dcfp_threshold_age_epochs", "").Value()
	if float64(st.ThresholdAgeEpochs) != gauge {
		t.Fatalf("Stats age %d disagrees with gauge %v", st.ThresholdAgeEpochs, gauge)
	}
}

// TestFlushFinalizesTrailingCrisis covers the stream-end path: a crisis
// still open when no more epochs arrive can never satisfy the two-calm-
// epoch close rule, so Flush finalizes it explicitly.
func TestFlushFinalizesTrailingCrisis(t *testing.T) {
	tb := newTestbed(t)
	if tb.m.Flush() {
		t.Fatal("Flush with no active crisis must be a no-op")
	}
	tb.quiet(200)
	tb.effects = map[int]float64{tbLatency: 5, tbQueueA: 8}
	for i := 0; i < 4; i++ {
		if rep := tb.step(); !rep.CrisisActive {
			t.Fatal("crisis not detected")
		}
	}
	if !tb.m.Flush() {
		t.Fatal("Flush did not finalize the active crisis")
	}
	if tb.m.st.Active() != nil {
		t.Fatal("crisis still active after Flush")
	}
	if storedCrises(tb.m) != 1 {
		t.Fatalf("store.Len = %d, want the trailing crisis stored", storedCrises(tb.m))
	}
	if tb.m.Flush() {
		t.Fatal("second Flush must be a no-op")
	}
	// The monitor keeps ingesting normally afterwards.
	tb.effects = map[int]float64{}
	if rep := tb.step(); rep.CrisisActive {
		t.Fatal("state machine wedged after Flush")
	}
}

// TestResolveCrisisOnUnstoredThenStored pins label propagation across an
// unstored crisis: the label lands on the record of the crisis it names,
// and a labelled crisis that was never stored is no identification
// candidate, while a labelled stored one after it is.
func TestResolveCrisisOnUnstoredThenStored(t *testing.T) {
	tb := newTestbed(t)
	// Crisis 1 lands before thresholds exist → never stored.
	tb.quiet(10)
	tb.effects = map[int]float64{tbLatency: 5}
	for i := 0; i < 4; i++ {
		tb.step()
	}
	tb.effects = map[int]float64{}
	tb.step()
	tb.step()
	tb.step()
	if storedCrises(tb.m) != 0 {
		t.Fatal("precondition: crisis 1 must be unstored")
	}
	// Establish thresholds, then a second crisis that does store.
	tb.quiet(150)
	id2, _ := tb.crisis("X", 8)
	if storedCrises(tb.m) != 1 {
		t.Fatal("crisis 2 not stored")
	}
	id1 := tb.m.Crises()[0].ID
	for _, r := range []struct{ id, label string }{{id1, "A"}, {id2, "X"}} {
		if err := tb.m.ResolveCrisis(r.id, r.label); err != nil {
			t.Fatal(err)
		}
	}
	recs := tb.m.Crises()
	if len(recs) != 2 || recs[0].Label != "A" || recs[0].Stored || recs[1].Label != "X" || !recs[1].Stored {
		t.Fatalf("crisis records %+v, want crisis 1 labelled A unstored, crisis 2 labelled X stored", recs)
	}
	// Both crises carry labels, only one is stored.
	if st := tb.m.Stats(); st.CrisesStored != 1 || st.StoreSize != 1 || st.CrisesLabeled != 2 {
		t.Fatalf("Stats crises stored %d, store size %d, labelled %d; want 1, 1, 2", st.CrisesStored, st.StoreSize, st.CrisesLabeled)
	}
	// A third crisis is compared against the labelled stored crisis only.
	tb.quiet(20)
	tb.effects = map[int]float64{tbLatency: 5, tbQueueA: 8}
	rep := tb.step()
	if rep.Advice == nil || rep.Advice.Candidates != 1 || rep.Advice.Explanation.Candidates[0].CrisisID != id2 {
		t.Fatalf("advice %+v, want crisis 2 as the one candidate", rep.Advice)
	}
}

func TestWorkersValidation(t *testing.T) {
	cat, _ := metrics.NewCatalog([]string{"a"})
	cfg := DefaultConfig(cat, sla.Config{KPIs: []sla.KPI{{Metric: 0, Threshold: 1}}, CrisisFraction: 0.1})
	cfg.Workers = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("want negative-workers error")
	}
}

func TestEpochWorkersResolution(t *testing.T) {
	names := make([]string, 256)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
	}
	cat, _ := metrics.NewCatalog(names)
	cfg := DefaultConfig(cat, sla.Config{KPIs: []sla.KPI{{Metric: 0, Threshold: 1}}, CrisisFraction: 0.1})
	cfg.Workers = 8
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Installations under the measured crossover stay on the serial path
	// regardless of the knob.
	for _, machines := range []int{20, 100, 249} {
		if w := m.workers(machines); w != 1 {
			t.Fatalf("workers(%d) = %d, want 1", machines, w)
		}
	}
	// From the crossover on, the configured pool splits the columns.
	for _, machines := range []int{250, 1000, 10000} {
		if w := m.workers(machines); w != 8 {
			t.Fatalf("workers(%d) = %d, want 8", machines, w)
		}
	}
	// The 32-metrics-per-worker floor bounds small catalogs: 100 metrics
	// give at most 4 workers, 32 or fewer one.
	for _, tc := range []struct{ metrics, want int }{{100, 4}, {32, 1}, {1, 1}} {
		cfg.Catalog, _ = metrics.NewCatalog(names[:tc.metrics])
		if m, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		if w := m.workers(10000); w != tc.want {
			t.Fatalf("%d metrics: workers(10000) = %d, want %d", tc.metrics, w, tc.want)
		}
	}
	cfg.Catalog, cfg.Workers = cat, 1
	m, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w := m.workers(10000); w != 1 {
		t.Fatalf("Workers=1 must force the serial path, got %d", w)
	}
}
