// Package dcfp_test holds the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation, plus ablation benches for
// the design choices called out in DESIGN.md.
//
// Benchmarks run against a shared small-scale trace so `go test -bench=.`
// finishes in minutes; the headline paper-scale numbers are produced by
// `go run ./cmd/experiments -scale full` and recorded in EXPERIMENTS.md.
// Each benchmark reports the figure's key quantity as a custom metric, so
// the bench output doubles as a compact regression record of experiment
// quality.
package dcfp_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dcfp/internal/core"
	"dcfp/internal/dcsim"
	"dcfp/internal/experiment"
	"dcfp/internal/metrics"
)

var (
	benchOnce sync.Once
	benchEnv  *experiment.Env
	benchErr  error
)

// sharedEnv simulates the benchmark trace once; all benchmarks reuse it so
// per-figure timings measure the experiment, not the simulator.
func sharedEnv(b *testing.B) *experiment.Env {
	b.Helper()
	benchOnce.Do(func() {
		tr, err := dcsim.Simulate(dcsim.SmallConfig(42))
		if err != nil {
			benchErr = err
			return
		}
		benchEnv, benchErr = experiment.NewEnv(tr)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// BenchmarkTable1CrisisCatalog regenerates Table 1 (the crisis catalog) and
// reports how many of the 19 labeled crises the SLA rule detected.
func BenchmarkTable1CrisisCatalog(b *testing.B) {
	env := sharedEnv(b)
	detected := 0
	for i := 0; i < b.N; i++ {
		detected = 0
		for _, r := range experiment.Table1(env) {
			detected += r.Detected
		}
	}
	b.ReportMetric(float64(detected), "crises-detected")
}

// BenchmarkFigure1Fingerprints renders the Figure 1 fingerprint grids.
func BenchmarkFigure1Fingerprints(b *testing.B) {
	env := sharedEnv(b)
	var n int
	for i := 0; i < b.N; i++ {
		cs, err := experiment.Figure1(env)
		if err != nil {
			b.Fatal(err)
		}
		n = len(cs)
	}
	b.ReportMetric(float64(n), "grids")
}

// BenchmarkFigure3DiscriminationROC regenerates the Figure 3 discrimination
// comparison and reports the fingerprint method's AUC.
func BenchmarkFigure3DiscriminationROC(b *testing.B) {
	env := sharedEnv(b)
	var auc float64
	for i := 0; i < b.N; i++ {
		entries, err := experiment.Figure3(env)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range entries {
			if e.Method == "fingerprints" {
				auc = e.AUC
			}
		}
	}
	b.ReportMetric(auc, "fingerprint-AUC")
}

// BenchmarkFigure4OfflineIdentification runs the offline identification
// protocol for the fingerprint method and reports the crossing accuracies.
func BenchmarkFigure4OfflineIdentification(b *testing.B) {
	env := sharedEnv(b)
	tn, err := env.BuildFingerprintTensor(experiment.OfflineFPConfig())
	if err != nil {
		b.Fatal(err)
	}
	var known, unknown float64
	for i := 0; i < b.N; i++ {
		s, err := experiment.RunIdentification(tn, experiment.OfflineRunConfig(7))
		if err != nil {
			b.Fatal(err)
		}
		_, known, unknown = s.Crossing()
	}
	b.ReportMetric(known, "known-acc")
	b.ReportMetric(unknown, "unknown-acc")
}

// BenchmarkFigure5QuasiOnline runs the quasi-online protocol.
func BenchmarkFigure5QuasiOnline(b *testing.B) {
	env := sharedEnv(b)
	tn, err := env.BuildFingerprintTensor(experiment.OnlineFPConfig())
	if err != nil {
		b.Fatal(err)
	}
	var known float64
	for i := 0; i < b.N; i++ {
		s, err := experiment.RunIdentification(tn, experiment.QuasiOnlineRunConfig(7))
		if err != nil {
			b.Fatal(err)
		}
		_, known, _ = s.Crossing()
	}
	b.ReportMetric(known, "known-acc")
}

// BenchmarkFigure6Online runs the fully online protocol (bootstrap 10).
func BenchmarkFigure6Online(b *testing.B) {
	env := sharedEnv(b)
	tn, err := env.BuildFingerprintTensor(experiment.OnlineFPConfig())
	if err != nil {
		b.Fatal(err)
	}
	var known, unknown float64
	for i := 0; i < b.N; i++ {
		s, err := experiment.RunIdentification(tn, experiment.OnlineRunConfig(7, 10))
		if err != nil {
			b.Fatal(err)
		}
		_, known, unknown = s.Crossing()
	}
	b.ReportMetric(known, "known-acc")
	b.ReportMetric(unknown, "unknown-acc")
}

// BenchmarkFigure7SummaryRange sweeps the crisis-summary range and reports
// the AUC of the paper's default [-30,+60] window.
func BenchmarkFigure7SummaryRange(b *testing.B) {
	env := sharedEnv(b)
	var auc float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure7(env)
		if err != nil {
			b.Fatal(err)
		}
		// start -30 is row index 2 (starts -60,-45,-30,-15,0); end +60
		// is column index 4 (0,15,...).
		auc = res.AUC[2][4]
	}
	b.ReportMetric(auc, "default-range-AUC")
}

// BenchmarkFigure8FrozenFingerprints runs the §6.3 frozen-fingerprint
// ablation (online, bootstrap 10).
func BenchmarkFigure8FrozenFingerprints(b *testing.B) {
	env := sharedEnv(b)
	var known float64
	for i := 0; i < b.N; i++ {
		s, err := experiment.Figure8(env, 7)
		if err != nil {
			b.Fatal(err)
		}
		_, known, _ = s.Crossing()
	}
	b.ReportMetric(known, "known-acc")
}

// BenchmarkTable2SettingsSummary regenerates the Table 2 summary.
func BenchmarkTable2SettingsSummary(b *testing.B) {
	env := sharedEnv(b)
	var rows []experiment.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.Table2(env, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "settings")
}

// BenchmarkSensitivityMetricsWindow sweeps fingerprint size (a reduced grid
// keeps the bench affordable; cmd/experiments runs the full §6.1 grid).
func BenchmarkSensitivityMetricsWindow(b *testing.B) {
	env := sharedEnv(b)
	var cells []experiment.SensitivityCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiment.SensitivityMetricsWindow(env, 7, []int{30, 10}, []int{240, 7})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cells)), "cells")
}

// BenchmarkSensitivityHotColdPercentiles sweeps the hot/cold percentile
// pairs of §6.2 and reports the (2,98) AUC.
func BenchmarkSensitivityHotColdPercentiles(b *testing.B) {
	env := sharedEnv(b)
	var auc float64
	for i := 0; i < b.N; i++ {
		cells, err := experiment.SensitivityHotCold(env)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.ColdPct == 2 {
				auc = c.AUC
			}
		}
	}
	b.ReportMetric(auc, "auc-2-98")
}

// BenchmarkAblationQuantileCount compares 3-quantile fingerprints against
// median-only ones (§3.5's direction-disagreement observation).
func BenchmarkAblationQuantileCount(b *testing.B) {
	env := sharedEnv(b)
	var full, median float64
	for i := 0; i < b.N; i++ {
		cells, err := experiment.AblationQuantileCount(env)
		if err != nil {
			b.Fatal(err)
		}
		full, median = cells[0].AUC, cells[1].AUC
	}
	b.ReportMetric(full, "auc-3q")
	b.ReportMetric(median, "auc-median-only")
}

// BenchmarkFingerprintStorage measures the §6.3 bookkeeping: recomputing a
// stored crisis's fingerprint from its window of the quantile track under
// fresh thresholds.
func BenchmarkFingerprintStorage(b *testing.B) {
	env := sharedEnv(b)
	tr := env.Trace
	th, err := env.OfflineThresholds(metrics.DefaultThresholdConfig())
	if err != nil {
		b.Fatal(err)
	}
	dc := env.Labeled[0]
	r := core.DefaultSummaryRange()
	closed := dc.Episode.Start + metrics.Epoch(r.After)
	rel, err := env.RelevantOffline(10, 30)
	if err != nil {
		b.Fatal(err)
	}
	f, err := core.NewFingerprinter(th, rel)
	if err != nil {
		b.Fatal(err)
	}
	var memo core.FingerprintMemo
	b.Run("uncached", func(b *testing.B) {
		// Generation 0 bypasses the memo: every call re-discretizes.
		for i := 0; i < b.N; i++ {
			if _, _, err := f.StoredFingerprint(&memo, tr.Track, dc.Episode.Start, r, closed); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(core.BytesPerCrisis(tr.Catalog.Len(), r)), "bytes/crisis")
	})
	b.Run("cached", func(b *testing.B) {
		// A generation-tagged fingerprinter memoizes per (generation,
		// relevant-set) window — the online monitor's repeat-call pattern
		// during the five identification epochs.
		g, err := core.NewFingerprinter(th, rel)
		if err != nil {
			b.Fatal(err)
		}
		g.SetGeneration(1)
		b.ResetTimer()
		hits := 0
		for i := 0; i < b.N; i++ {
			_, hit, err := g.StoredFingerprint(&memo, tr.Track, dc.Episode.Start, r, closed)
			if err != nil {
				b.Fatal(err)
			}
			if hit {
				hits++
			}
		}
		if b.N > 1 && hits == 0 {
			b.Fatal("memo never hit")
		}
	})
}

// BenchmarkIdentificationThresholdRules measures the §5.3 online threshold
// estimation over a realistic pair count (store of 18 crises).
func BenchmarkIdentificationThresholdRules(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var pairs []core.LabeledPair
	for i := 0; i < 18*17/2; i++ {
		pairs = append(pairs, core.LabeledPair{Distance: rng.ExpFloat64(), Same: rng.Intn(4) == 0})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.OnlineThreshold(pairs, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpochFingerprint measures the per-epoch fingerprinting cost —
// the online fast path that runs every 15 minutes in production.
func BenchmarkEpochFingerprint(b *testing.B) {
	env := sharedEnv(b)
	th, err := env.OfflineThresholds(metrics.DefaultThresholdConfig())
	if err != nil {
		b.Fatal(err)
	}
	rel, err := env.RelevantOffline(10, 30)
	if err != nil {
		b.Fatal(err)
	}
	f, err := core.NewFingerprinter(th, rel)
	if err != nil {
		b.Fatal(err)
	}
	row, err := env.Trace.Track.EpochRow(100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.EpochFingerprint(row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThresholdUpdate measures one §3.3 moving-window threshold
// re-estimation over the whole catalog.
func BenchmarkThresholdUpdate(b *testing.B) {
	env := sharedEnv(b)
	tr := env.Trace
	cfg := metrics.DefaultThresholdConfig()
	end := metrics.Epoch(tr.NumEpochs() - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.ComputeThresholds(tr.Track, tr.IsNormal, end, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerCrisisSelection measures the §3.4 per-crisis feature selection
// at the size the monitor runs it when a crisis closes at paper scale: 17
// collected epochs of 100 machines x 100 metrics, ~15 % of the rows from
// SLA-violating machines; and at 400 machines' worth of rows. The metrics are
// mixtures of a few latent load factors, one of which shifts on violating
// machines — collinear like real datacenter metrics, so, as on the
// simulator's crises, the λ path runs six fits that all stop at MaxIter
// (3 000 FISTA iterations). It is the crisis-end stall — 98 % of the
// benchmark's crisis-100 pipeline time — and gated through BENCH_5.json.
func BenchmarkPerCrisisSelection(b *testing.B) {
	for _, rows := range []int{1700, 6800} {
		b.Run(fmt.Sprintf("%dx100", rows), func(b *testing.B) {
			const width, factors = 100, 6
			rng := rand.New(rand.NewSource(15))
			loading := make([][factors]float64, width)
			for j := range loading {
				for f := range loading[j] {
					loading[j][f] = rng.NormFloat64()
				}
			}
			s := core.CrisisSamples{X: make([][]float64, rows), Y: make([]int, rows)}
			for i := range s.X {
				var latent [factors]float64
				for f := range latent {
					latent[f] = rng.NormFloat64()
				}
				if rng.Float64() < 0.15 {
					s.Y[i] = 1
					latent[0] += 2.5
				}
				row := make([]float64, width)
				for j := range row {
					row[j] = 50 + rng.NormFloat64()
					for f, l := range loading[j] {
						row[j] += 4 * l * latent[f]
					}
				}
				s.X[i] = row
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				top, err := core.PerCrisisMetrics(s, 10)
				if err != nil || len(top) == 0 {
					b.Fatalf("selected %v, err %v", top, err)
				}
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}
