package monitor

import "testing"

// observeEpochAllocs measures steady-state ObserveEpoch allocations on the
// production-shaped benchmark monitor (100 machines x 100 metrics, never in
// crisis) with the given worker setting.
func observeEpochAllocs(t *testing.T, workers int, forecast bool) float64 {
	t.Helper()
	cfg, epochs := benchMonitorConfig(t, nil, nil)
	if forecast {
		cfg.Forecast = DefaultForecastConfig()
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.cfg.Workers = workers
	m.minSplit = 1 // split the 100 machines: the fan-out runs
	// Warm up: learn the expected machine count, fill the raw ring, and let
	// the summary buffers and scratch reach steady state. Stay below
	// MinEpochsForThresholds so no threshold refresh lands mid-measurement —
	// the refresh is a deliberate once-a-day allocation, not the hot path.
	for i := 0; i < 50; i++ {
		if _, err := m.ObserveEpoch(epochs[i%len(epochs)]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	return testing.AllocsPerRun(400, func() {
		if _, err := m.ObserveEpoch(epochs[i%len(epochs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// TestObserveEpochAllocs pins the steady-state ingestion path at its
// owned-buffer allocation level. Before the columnar-matrix rework the
// serial path copied every reporting machine's row into a fresh slice (133
// allocs per epoch on the 100x100 testbed); with the retained epoch, scratch
// masks, the two summary buffers the monitor swaps and the aggregator's
// per-worker selection scratch, two remain. AllocsPerRun runs at GOMAXPROCS
// 1, so the split case names its four workers instead of resolving them
// from the processor count.
func TestObserveEpochAllocs(t *testing.T) {
	if avg := observeEpochAllocs(t, 1, false); avg > 2 {
		t.Errorf("serial ObserveEpoch allocates %.1f objects/epoch in steady state, want <= 2", avg)
	}
	if avg := observeEpochAllocs(t, 4, false); avg > 20 {
		t.Errorf("4-worker ObserveEpoch allocates %.1f objects/epoch in steady state, want <= 20 (goroutine fan-out included)", avg)
	}
	// The forecast stage rides the same epoch: its trend ring, near-scan and
	// band-scan are all in-place, so the budget holds with it enabled.
	if avg := observeEpochAllocs(t, 1, true); avg > 2 {
		t.Errorf("forecast-enabled ObserveEpoch allocates %.1f objects/epoch in steady state, want <= 2", avg)
	}
}
