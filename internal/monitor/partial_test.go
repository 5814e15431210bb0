package monitor

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"dcfp/internal/metrics"
	"dcfp/internal/telemetry"
)

// testShard is an in-test stand-in for a fleet aggregator: it owns a
// contiguous machine slice and emits one remote ShardPartial per epoch the
// way fleet.Aggregator.EpochFrame does.
type testShard struct{ lo, hi int }

// newTestShards cuts the machine axis at bounds (len(bounds)-1 shards).
func newTestShards(bounds ...int) []*testShard {
	shards := make([]*testShard, len(bounds)-1)
	for i := range shards {
		shards[i] = &testShard{lo: bounds[i], hi: bounds[i+1]}
	}
	return shards
}

// evenBounds splits machines into n near-equal contiguous ranges.
func evenBounds(machines, n int) []int {
	bounds := make([]int, n+1)
	for i := range bounds {
		bounds[i] = i * machines / n
	}
	return bounds
}

func (s *testShard) partial(t testing.TB, m *Monitor, rows [][]float64) ShardPartial {
	t.Helper()
	sub := rows[s.lo:s.hi]
	nm := m.cfg.Catalog.Len()
	p := ShardPartial{Lo: s.lo, Viol: make([]bool, len(sub)), Reporting: make([]bool, len(sub))}
	var err error
	if p.Cols, p.Dropped, err = metrics.ScanBatchFiltered(sub, nm, p.Reporting, make([]float64, nm*len(sub))); err != nil {
		t.Fatal(err)
	}
	if p.Status, err = m.cfg.SLA.EvaluateMasked(sub, p.Viol, p.Reporting); err != nil {
		t.Fatal(err)
	}
	return p
}

// dead is the partial a coordinator synthesizes for a shard that delivered
// nothing: every machine non-reporting, no cells.
func (s *testShard) dead() ShardPartial {
	n := s.hi - s.lo
	return ShardPartial{Lo: s.lo, Viol: make([]bool, n), Reporting: make([]bool, n)}
}

// equivRun is what the equivalence guarantee covers for one monitor over the
// seeded trace: every epoch report, the final stats and the crisis records.
type equivRun struct {
	reports []*EpochReport
	stats   Stats
	crises  []CrisisRecord
}

// runEquiv replays the seeded 420-epoch trace through a Workers=workers
// monitor, feeding each epoch with observe and resolving every episode as it
// closes so later identifications run with labeled candidates (exercising
// the fingerprint cache). With a non-nil want it fails at the first epoch
// whose report diverges from the reference.
func runEquiv(t *testing.T, workers int, want *equivRun, observe func(m *Monitor, e int, rows [][]float64) (*EpochReport, error)) *equivRun {
	t.Helper()
	const seed, epochs = 42, 420
	s := equivStream(t, seed)
	m := equivMonitor(t, s, workers, nil)
	got := &equivRun{}
	lastActive := false
	label := ""
	for e := 0; e < epochs; e++ {
		rows, act, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := observe(m, e, rows)
		if err != nil {
			t.Fatal(err)
		}
		if want != nil && !reflect.DeepEqual(want.reports[e], rep) {
			t.Fatalf("epoch %d: reports diverge:\nreference: %+v\ngot:       %+v", e, want.reports[e], rep)
		}
		got.reports = append(got.reports, rep)
		if act != nil {
			label = fmt.Sprintf("type-%d", act.Type)
		}
		if lastActive && !rep.CrisisActive {
			recs := m.Crises()
			if err := m.ResolveCrisis(recs[len(recs)-1].ID, label); err != nil {
				t.Fatal(err)
			}
		}
		lastActive = rep.CrisisActive
	}
	got.stats, got.crises = m.Stats(), m.Crises()
	if want != nil {
		if !reflect.DeepEqual(want.stats, got.stats) {
			t.Fatalf("final stats diverge:\nreference: %+v\ngot:       %+v", want.stats, got.stats)
		}
		if !reflect.DeepEqual(want.crises, got.crises) {
			t.Fatalf("crisis records diverge:\nreference: %+v\ngot:       %+v", want.crises, got.crises)
		}
	}
	return got
}

// TestAggregatedEquivalence is the determinism guarantee of the one
// ingestion pipeline: the quantile summary is a function of the epoch's
// value multiset and the SLA counts are order-independent sums, so any
// split of the work — the metric columns over Workers=4 goroutines in
// process, or 2, 4 and an uneven 3 remote shards through ObserveAggregated,
// filtered serially (Workers=1) or column-split (Workers=4) — yields
// EpochReport, Stats and
// crisis streams byte-identical to the Workers=1 reference on the same
// seeded 420-epoch trace. A shard that goes dark mid-stream (its partial
// synthesized as non-reporting) must equal the serial monitor seeing nil
// rows over the same machines.
func TestAggregatedEquivalence(t *testing.T) {
	// The third of four shards is dark for these epochs in the dead-shard
	// case: 75% coverage, above the MinCoverage floor.
	const deadShard, deadFrom, deadTo = 2, 100, 140
	serial := func(m *Monitor, _ int, rows [][]float64) (*EpochReport, error) { return m.ObserveEpoch(rows) }
	reference := runEquiv(t, 1, nil, serial)

	aggregated := func(dark bool, bounds func(machines int) []int) func(*Monitor, int, [][]float64) (*EpochReport, error) {
		var shards []*testShard
		return func(m *Monitor, e int, rows [][]float64) (*EpochReport, error) {
			if shards == nil {
				shards = newTestShards(bounds(len(rows))...)
			}
			parts := make([]ShardPartial, len(shards))
			for k, sh := range shards {
				if dark && k == deadShard && e >= deadFrom && e < deadTo {
					parts[k] = sh.dead()
				} else {
					parts[k] = sh.partial(t, m, rows)
				}
			}
			return m.ObserveAggregated(len(rows), parts, nil)
		}
	}
	// The partials out of machine order: the estimators take them as given,
	// the retained epoch still follows machine order.
	reversed := func(m *Monitor, _ int, rows [][]float64) (*EpochReport, error) {
		shards := newTestShards(evenBounds(len(rows), 3)...)
		parts := make([]ShardPartial, len(shards))
		for k, sh := range shards {
			parts[len(shards)-1-k] = sh.partial(t, m, rows)
		}
		return m.ObserveAggregated(len(rows), parts, nil)
	}
	even := func(n int) func(int) []int { return func(machines int) []int { return evenBounds(machines, n) } }

	for _, tc := range []struct {
		name    string
		workers int
		want    func() *equivRun
		observe func(*Monitor, int, [][]float64) (*EpochReport, error)
	}{
		{name: "workers4", workers: 4, observe: serial},
		{name: "shards2", workers: 1, observe: aggregated(false, even(2))},
		{name: "shards4", workers: 1, observe: aggregated(false, even(4))},
		{name: "shards4-workers4", workers: 4, observe: aggregated(false, even(4))},
		{name: "shards3-reversed", workers: 1, observe: reversed},
		{name: "shards3-reversed-workers4", workers: 4, observe: reversed},
		{name: "shards3-uneven", workers: 1, observe: aggregated(false, func(machines int) []int {
			return []int{0, 7, machines / 2, machines}
		})},
		{name: "shards4-one-dead", workers: 1, observe: aggregated(true, even(4)),
			want: func() *equivRun {
				return runEquiv(t, 1, nil, func(m *Monitor, e int, rows [][]float64) (*EpochReport, error) {
					if e >= deadFrom && e < deadTo {
						b := evenBounds(len(rows), 4)
						rows = append([][]float64(nil), rows...)
						clear(rows[b[deadShard]:b[deadShard+1]])
					}
					return m.ObserveEpoch(rows)
				})
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want := reference
			if tc.want != nil {
				want = tc.want()
			}
			runEquiv(t, tc.workers, want, tc.observe)
		})
	}
}

// spanNames runs a few steady epochs through observe on a fresh traced,
// instrumented 100x100 monitor and returns the last epoch's span names in
// start order plus how many observations each billed stage recorded.
func spanNames(t *testing.T, workers int, observe func(m *Monitor, rows [][]float64) error) ([]string, map[string]uint64) {
	t.Helper()
	const epochs = 5
	reg, tracer := telemetry.NewRegistry(), telemetry.NewTracer(epochs)
	cfg, rows := benchMonitorConfig(t, reg, tracer)
	cfg.Workers = workers
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.minSplit = 1 // split the 100 machines: the parallel path runs
	for e := 0; e < epochs; e++ {
		if err := observe(m, rows[e]); err != nil {
			t.Fatal(err)
		}
	}
	snaps := tracer.Snapshots()
	var names []string
	for _, sp := range snaps[len(snaps)-1].Spans {
		names = append(names, sp.Name)
	}
	counts := map[string]uint64{}
	for _, stage := range []string{stageQuantile, stageSLA} {
		counts[stage] = reg.Histogram("dcfp_monitor_stage_seconds", "", telemetry.TimeBuckets(),
			telemetry.Label{Key: "stage", Value: stage}).Count()
	}
	return names, counts
}

// TestOneStageTaxonomy: every ingestion mode records the same spans in the
// same order and bills the same stages once per epoch — the aggregated mode
// differing only in the name of the span that filters the rows.
func TestOneStageTaxonomy(t *testing.T) {
	local := func(m *Monitor, rows [][]float64) error {
		_, err := m.ObserveEpoch(rows)
		return err
	}
	serial, serialCounts := spanNames(t, 1, local)
	if want := []string{"ingest", "filter", "summarize", "sla"}; !reflect.DeepEqual(serial, want) {
		t.Fatalf("serial steady-epoch spans %v, want %v", serial, want)
	}
	parallel, parallelCounts := spanNames(t, 4, local)
	if !reflect.DeepEqual(parallel, serial) {
		t.Fatalf("parallel spans %v, serial %v", parallel, serial)
	}
	var shards []*testShard
	aggregated, aggregatedCounts := spanNames(t, 1, func(m *Monitor, rows [][]float64) error {
		if shards == nil {
			shards = newTestShards(evenBounds(len(rows), 2)...)
		}
		parts := []ShardPartial{shards[0].partial(t, m, rows), shards[1].partial(t, m, rows)}
		_, err := m.ObserveAggregated(len(rows), parts, nil)
		return err
	})
	want := append([]string(nil), serial...)
	want[slices.Index(want, "filter")] = "merge"
	if !reflect.DeepEqual(aggregated, want) {
		t.Fatalf("aggregated spans %v, want %v", aggregated, want)
	}
	for _, counts := range []map[string]uint64{serialCounts, parallelCounts, aggregatedCounts} {
		if !reflect.DeepEqual(counts, map[string]uint64{stageQuantile: 5, stageSLA: 5}) {
			t.Fatalf("stage billing %v, want quantile and sla once per epoch in every mode", counts)
		}
	}
}

// BenchmarkObserveEpochAggregated measures the coordinator-side merge path
// — column pass, summarize, SLA merge, mask scatter, and the shared epoch
// finish — with the shard partials pre-built outside the timer, as a
// coordinator sees them after decoding frames. The name keys into the
// benchgate regex so CI gates this path against BENCH_5.json.
func BenchmarkObserveEpochAggregated(b *testing.B) {
	for _, nShards := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards%d", nShards), func(b *testing.B) {
			const machines = 100
			m, epochs := benchMonitorSized(b, machines, 1)
			rows := epochs[0]
			parts := make([]ShardPartial, nShards)
			for i, sh := range newTestShards(evenBounds(machines, nShards)...) {
				parts[i] = sh.partial(b, m, rows)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.ObserveAggregated(machines, parts, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestObserveAggregatedValidation covers the malformed-partial paths.
func TestObserveAggregatedValidation(t *testing.T) {
	s := equivStream(t, 1)
	m := equivMonitor(t, s, 1, nil)
	rows, _, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	n := len(rows)
	good := func() ShardPartial {
		return newTestShards(0, n)[0].partial(t, m, rows)
	}

	if _, err := m.ObserveAggregated(0, []ShardPartial{good()}, nil); err == nil {
		t.Fatal("want error for zero machines")
	}
	if _, err := m.ObserveAggregated(n, nil, nil); err == nil {
		t.Fatal("want error for no partials")
	}
	p := good()
	p.Viol = p.Viol[:1]
	if _, err := m.ObserveAggregated(n, []ShardPartial{p}, nil); err == nil {
		t.Fatal("want error for mask length mismatch")
	}
	p = good()
	p.Lo = 5
	if _, err := m.ObserveAggregated(n, []ShardPartial{p}, nil); err == nil {
		t.Fatal("want error for out-of-range slice")
	}
	p = good()
	p.Cols = p.Cols[:len(p.Cols)-1]
	if _, err := m.ObserveAggregated(n, []ShardPartial{p}, nil); err == nil {
		t.Fatal("want error for columns one cell short")
	}
	p = good()
	p.Cols = append(p.Cols, 0)
	if _, err := m.ObserveAggregated(n, []ShardPartial{p}, nil); err == nil {
		t.Fatal("want error for columns one cell long")
	}
	p1, p2 := good(), good()
	if _, err := m.ObserveAggregated(n, []ShardPartial{p1, p2}, nil); err == nil {
		t.Fatal("want error for overlapping partials")
	}
	// A valid single partial still observes cleanly after all the failures.
	if _, err := m.ObserveAggregated(n, []ShardPartial{good()}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestObserveAggregatedRefusesUnshippedMachine: a partial that marks a
// machine reporting must ship that machine's cells. Rows once let a
// reporting machine arrive with no row; the merge accepted it at full
// coverage and the retained epoch kept whatever its recycled row last held.
// Columns one machine short are refused, and the monitor is left as it was.
func TestObserveAggregatedRefusesUnshippedMachine(t *testing.T) {
	const machines = 40
	s := equivStream(t, 3)
	m := equivMonitor(t, s, 1, nil)
	shards := newTestShards(0, machines/2, machines)
	var rows [][]float64
	for e := 0; e < 3; e++ {
		src, _, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		rows = src[:machines]
		parts := []ShardPartial{shards[0].partial(t, m, rows), shards[1].partial(t, m, rows)}
		if _, err := m.ObserveAggregated(machines, parts, nil); err != nil {
			t.Fatal(err)
		}
	}
	epoch := m.Epoch()
	parts := []ShardPartial{shards[0].partial(t, m, rows), shards[1].partial(t, m, rows)}
	// Shard 1's machine 3 (global 23) still reports, but its cells are gone.
	p := &parts[1]
	sent := newTestShards(machines/2, machines)[0]
	short := append([][]float64(nil), rows...)
	short[machines/2+3] = nil
	p.Cols = sent.partial(t, m, short).Cols
	if _, err := m.ObserveAggregated(machines, parts, nil); err == nil {
		t.Fatal("a reporting machine without cells was accepted")
	}
	if m.Epoch() != epoch {
		t.Fatalf("a refused partial advanced the monitor to epoch %d, want %d", m.Epoch(), epoch)
	}
}

// TestObserveAggregatedSanitizesUnclaimedNaN: sanitization goes by the
// non-finite cells the monitor's own column pass finds, not by the count a
// shard claims. A partial that ships a NaN while declaring Dropped 0 once
// left the NaN in the retained epoch, from where it reached crisis samples
// and failed feature selection.
func TestObserveAggregatedSanitizesUnclaimedNaN(t *testing.T) {
	const machines, bad, metric = 40, 25, 7
	s := equivStream(t, 3)
	m := equivMonitor(t, s, 1, nil)
	shards := newTestShards(0, machines/2, machines)
	src, _, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, machines)
	for i := range rows {
		rows[i] = append([]float64(nil), src[i]...)
	}
	rows[bad][metric] = math.NaN()
	parts := []ShardPartial{shards[0].partial(t, m, rows), shards[1].partial(t, m, rows)}
	if parts[1].Dropped != 1 {
		t.Fatalf("shard counted %d non-finite cells, want 1", parts[1].Dropped)
	}
	parts[1].Dropped = 0
	rep, err := m.ObserveAggregated(machines, parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CrisisActive || rep.Degraded {
		t.Fatal("the probe epoch must be idle so the ring keeps it")
	}
	kept := m.st.Ring[(m.st.RingPos+m.cfg.RawPad-1)%m.cfg.RawPad]
	got := kept.X[metric*len(kept.Viol)+bad]
	if want := m.lastSummary[metric][1]; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("retained machine %d metric %d is %v, want the epoch median %v", bad, metric, got, want)
	}
}
