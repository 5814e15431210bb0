package monitor

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/ident"
	"dcfp/internal/metrics"
	"dcfp/internal/quantile"
	"dcfp/internal/sla"
	"dcfp/internal/telemetry"
)

// guardExact wraps the exact estimator and trips a shared counter on any
// non-finite insert — the invariant the degraded ingestion path must hold.
// Every insert method is overridden, so none reaches the embedded Exact
// unchecked, and seen counts the values checked.
type guardExact struct {
	quantile.Exact
	bad, seen *atomic.Int64
}

// check inspects the observations the last insert appended, as the
// estimator stores them.
func (g *guardExact) check(from int) {
	vs := g.Exact.RawValues()[from:]
	g.seen.Add(int64(len(vs)))
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			g.bad.Add(1)
		}
	}
}

func (g *guardExact) Insert(v float64) {
	n := g.Count()
	g.Exact.Insert(v)
	g.check(n)
}

func (g *guardExact) InsertBatch(vs []float64) {
	n := g.Count()
	g.Exact.InsertBatch(vs)
	g.check(n)
}

func (g *guardExact) GatherFinite(strip [][]float64, m int, drops []int, dst []float64) int {
	n := g.Count()
	d := g.Exact.GatherFinite(strip, m, drops, dst)
	g.check(n)
	return d
}

func (g *guardExact) InsertFiniteColumn(col, dst []float64) int {
	n := g.Count()
	d := g.Exact.InsertFiniteColumn(col, dst)
	g.check(n)
	return d
}

// TestFaultNaNNeverReachesEstimators is the property test behind the
// acceptance criterion: drive a heavily corrupted stream (blank, corrupt,
// dropout, truncation, reorder, duplication) through the ingestor into
// monitors on both the serial and column-split paths, and assert not one NaN or
// Inf ever hits a quantile estimator.
func TestFaultNaNNeverReachesEstimators(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			scfg := dcsim.DefaultStreamConfig(17)
			scfg.WarmupEpochs = 16
			scfg.MeanGapEpochs = 24
			s, err := dcsim.NewStream(scfg)
			if err != nil {
				t.Fatal(err)
			}
			fcfg := dcsim.DefaultFaultConfig(18)
			fcfg.BlankRate = 0.02
			fcfg.CorruptRate = 0.02
			fcfg.DropoutRate = 0.01
			inj, err := dcsim.NewFaultInjector(s, fcfg)
			if err != nil {
				t.Fatal(err)
			}

			var bad, seen atomic.Int64
			cfg := DefaultConfig(s.Catalog(), s.SLA())
			cfg.Workers = workers
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.minSplit = 1 // split the 100 machines: the column split runs
			m.agg, err = metrics.NewAggregator(s.Catalog().Len(), func() quantile.Estimator { return &guardExact{bad: &bad, seen: &seen} })
			if err != nil {
				t.Fatal(err)
			}
			ing, err := NewIngestor(m, DefaultIngestConfig())
			if err != nil {
				t.Fatal(err)
			}
			observed := 0
			for i := 0; i < 300; i++ {
				ep, err := inj.Next()
				if err != nil {
					t.Fatal(err)
				}
				reps, err := ing.Ingest(metrics.Epoch(ep.Epoch), ep.Rows)
				if err != nil {
					t.Fatal(err)
				}
				observed += len(reps)
			}
			if got := bad.Load(); got != 0 {
				t.Fatalf("%d non-finite values reached the quantile estimators", got)
			}
			if seen.Load() == 0 {
				t.Fatal("no value reached the guarded estimators: the guard checked nothing")
			}
			if observed == 0 {
				t.Fatal("no epochs were observed through the faulty pipeline")
			}
			st := inj.Stats()
			if st.CellsBlanked == 0 || st.CellsCorrupt == 0 || st.MachineDrops == 0 {
				t.Fatalf("fault pressure too low to prove anything: %+v", st)
			}
		})
	}
}

// coverageMonitor builds a 3-metric monitor with a low warm-up bar so the
// coverage-floor behavior can be probed directly with hand-built epochs.
func coverageMonitor(t *testing.T, minCoverage float64) *Monitor {
	t.Helper()
	cat, err := metrics.NewCatalog([]string{"latency", "qa", "qb"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(cat, sla.Config{
		KPIs:           []sla.KPI{{Name: "latency", Metric: 0, Threshold: 100}},
		CrisisFraction: 0.10,
	})
	cfg.MinCoverage = minCoverage
	cfg.Telemetry = telemetry.NewRegistry()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func calmRows(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{50, 10, 10}
	}
	return rows
}

// TestCoverageFloorFlagsDegradedNotCrisis is the acceptance check for the
// floor: when a telemetry outage silences 90% of machines and every
// survivor happens to violate the SLA, the epoch must come back Degraded
// with no crisis started — and the outage must not end a real crisis either.
func TestCoverageFloorFlagsDegradedNotCrisis(t *testing.T) {
	const n = 40
	m := coverageMonitor(t, 0.5)
	for e := 0; e < 10; e++ {
		rep, err := m.ObserveEpoch(calmRows(n))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Degraded || rep.Coverage != 1 {
			t.Fatalf("clean epoch flagged degraded (%+v)", rep)
		}
	}

	// Outage: 4 of 40 machines report, all violating. 100% of the reporting
	// set violates, but coverage 0.1 < 0.5 floor.
	outage := make([][]float64, n)
	for i := 0; i < 4; i++ {
		outage[i] = []float64{500, 10, 10}
	}
	rep, err := m.ObserveEpoch(outage)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatal("below-floor epoch not flagged degraded")
	}
	if rep.Coverage != 0.1 {
		t.Fatalf("coverage = %v, want 0.1", rep.Coverage)
	}
	if !rep.Status.InCrisis {
		t.Fatal("status should still report the raw rule outcome over reporting machines")
	}
	if rep.CrisisActive {
		t.Fatal("degraded epoch started a crisis")
	}
	if s := m.Stats(); s.CrisisActive || s.DegradedEpochs != 1 || s.LastCoverage != 0.1 {
		t.Fatalf("stats %+v, want frozen state machine with 1 degraded epoch", s)
	}

	// Recovery: the next full epoch is clean and trusted again.
	rep, err = m.ObserveEpoch(calmRows(n))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded || rep.CrisisActive {
		t.Fatalf("recovered epoch misjudged: %+v", rep)
	}

	// Now a real crisis (30/40 violating, full coverage) must open...
	crisisRows := calmRows(n)
	for i := 0; i < 30; i++ {
		crisisRows[i] = []float64{500, 10, 10}
	}
	rep, err = m.ObserveEpoch(crisisRows)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CrisisActive {
		t.Fatal("full-coverage crisis epoch did not open an episode")
	}
	// ...and two degraded calm-looking epochs must NOT close it: the calm
	// counter freezes during the outage.
	for k := 0; k < 2; k++ {
		deg := make([][]float64, n)
		deg[0] = []float64{50, 10, 10}
		rep, err = m.ObserveEpoch(deg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Degraded || !rep.CrisisActive {
			t.Fatalf("outage epoch during crisis: %+v, want degraded with episode still open", rep)
		}
	}
	// Two genuinely calm full epochs close it.
	for k := 0; k < 2; k++ {
		rep, err = m.ObserveEpoch(calmRows(n))
		if err != nil {
			t.Fatal(err)
		}
	}
	if rep.CrisisActive {
		t.Fatal("crisis did not close after two full calm epochs")
	}
}

// TestZeroReportingEpochAlwaysDegraded: even with the floor disabled, an
// epoch where nobody reports cannot drive the state machine.
func TestZeroReportingEpochAlwaysDegraded(t *testing.T) {
	m := coverageMonitor(t, 0)
	if _, err := m.ObserveEpoch(calmRows(10)); err != nil {
		t.Fatal(err)
	}
	rep, err := m.ObserveEpoch(make([][]float64, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.Coverage != 0 {
		t.Fatalf("all-nil epoch: %+v, want degraded with zero coverage", rep)
	}
	if rep.Status.InCrisis || rep.CrisisActive {
		t.Fatalf("all-nil epoch declared a crisis: %+v", rep)
	}
}

// TestMachineLivenessTracksDropout: the per-epoch reporting mask follows
// which machines delivered a finite sample — a machine with no row and one
// whose row is all NaN both drop out of the epoch's coverage.
func TestMachineLivenessTracksDropout(t *testing.T) {
	m := coverageMonitor(t, 0)
	rows := calmRows(5)
	rep, err := m.ObserveEpoch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage != 1 {
		t.Fatalf("full epoch coverage = %v, want 1", rep.Coverage)
	}
	rows[3] = nil
	rows[4] = []float64{math.NaN(), math.NaN(), math.NaN()}
	if rep, err = m.ObserveEpoch(rows); err != nil {
		t.Fatal(err)
	}
	if rep.Coverage != 0.6 {
		t.Fatalf("coverage with two machines out = %v, want 0.6", rep.Coverage)
	}
	if want := []bool{true, true, true, false, false}; !slices.Equal(m.reportBuf[:5], want) {
		t.Fatalf("reporting mask = %v, want %v", m.reportBuf[:5], want)
	}
}

// TestFaultAccuracyWithinFivePoints is the satellite regression: on a
// seeded 420-epoch trace with ~5% machine dropout and 1% metric corruption,
// known-crisis identification accuracy stays within 5 points of the clean
// run. Both runs restrict the crisis pool to two types so repeats (and thus
// known-crisis identifications) actually occur in 420 epochs.
func TestFaultAccuracyWithinFivePoints(t *testing.T) {
	if testing.Short() {
		t.Skip("420-epoch double run")
	}
	const seed, epochs = 42, 420

	run := func(faulty bool) (correct, total int) {
		scfg := dcsim.DefaultStreamConfig(seed)
		scfg.WarmupEpochs = 48
		scfg.MeanGapEpochs = 24
		scfg.Types = []crisis.Type{crisis.TypeB, crisis.TypeC}
		s, err := dcsim.NewStream(scfg)
		if err != nil {
			t.Fatal(err)
		}
		var inj *dcsim.FaultInjector
		if faulty {
			// Entry rate 0.005 with mean stretch ~10 epochs ≈ 5% of
			// machine-epochs dark; 1% of surviving cells blank or corrupt.
			inj, err = dcsim.NewFaultInjector(s, dcsim.FaultConfig{
				Seed:             seed + 1,
				DropoutRate:      0.005,
				DropoutMinEpochs: 4,
				DropoutMaxEpochs: 16,
				BlankRate:        0.0075,
				CorruptRate:      0.0025,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		cfg := DefaultConfig(s.Catalog(), s.SLA())
		cfg.ThresholdRefreshEpochs = 48
		cfg.MinEpochsForThresholds = 96
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}

		label := ""
		seenTypes := map[string]bool{}
		lastActive := false
		episodeKnown := false
		var episodeAdvice []string
		finish := func() {
			if !episodeKnown {
				return
			}
			for _, emitted := range episodeAdvice {
				total++
				if emitted == label {
					correct++
				}
			}
		}
		for i := 0; i < epochs; i++ {
			var rows [][]float64
			var act *crisis.Instance
			if faulty {
				ep, err := inj.Next()
				if err != nil {
					t.Fatal(err)
				}
				rows, act = ep.Rows, ep.Active
			} else {
				rows, act, err = s.Next()
				if err != nil {
					t.Fatal(err)
				}
			}
			rep, err := m.ObserveEpoch(rows)
			if err != nil {
				t.Fatal(err)
			}
			if act != nil {
				label = fmt.Sprintf("type-%d", act.Type)
			}
			if rep.CrisisActive && !lastActive {
				// Known-crisis episode: its ground-truth type was already
				// resolved at least once before this episode began.
				episodeKnown = seenTypes[label]
				episodeAdvice = episodeAdvice[:0]
			}
			if rep.Advice != nil && rep.Advice.Emitted != "" && rep.Advice.Emitted != ident.Unknown {
				episodeAdvice = append(episodeAdvice, rep.Advice.Emitted)
			}
			if lastActive && !rep.CrisisActive {
				finish()
				recs := m.Crises()
				if err := m.ResolveCrisis(recs[len(recs)-1].ID, label); err != nil {
					t.Fatal(err)
				}
				seenTypes[label] = true
			}
			lastActive = rep.CrisisActive
		}
		if lastActive {
			finish()
		}
		return correct, total
	}

	cc, ct := run(false)
	fc, ft := run(true)
	if ct == 0 {
		t.Fatal("clean run produced no known-crisis advice; trace unsuitable")
	}
	if ft == 0 {
		t.Fatal("faulty run produced no known-crisis advice")
	}
	cleanAcc := float64(cc) / float64(ct)
	faultAcc := float64(fc) / float64(ft)
	t.Logf("clean accuracy %d/%d = %.3f, faulty %d/%d = %.3f", cc, ct, cleanAcc, fc, ft, faultAcc)
	if diff := math.Abs(cleanAcc - faultAcc); diff > 0.05 {
		t.Fatalf("accuracy moved %.3f under faults (clean %.3f, faulty %.3f), budget 0.05", diff, cleanAcc, faultAcc)
	}
}
