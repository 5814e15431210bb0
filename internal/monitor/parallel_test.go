package monitor

import (
	"fmt"
	"math/rand"
	"testing"

	"dcfp/internal/dcsim"
	"dcfp/internal/metrics"
	"dcfp/internal/sla"
	"dcfp/internal/telemetry"
)

func equivStream(t *testing.T, seed int64) *dcsim.Stream {
	t.Helper()
	scfg := dcsim.DefaultStreamConfig(seed)
	scfg.WarmupEpochs = 48
	scfg.MeanGapEpochs = 24
	s, err := dcsim.NewStream(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func equivMonitor(t *testing.T, s *dcsim.Stream, workers int, reg *telemetry.Registry) *Monitor {
	t.Helper()
	cfg := DefaultConfig(s.Catalog(), s.SLA())
	cfg.ThresholdRefreshEpochs = 48
	cfg.MinEpochsForThresholds = 96
	cfg.Workers = workers
	cfg.Telemetry = reg
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The trace has 100 machines, under the fan-out crossover: let the
	// workers split it anyway, so the parallel paths run.
	m.minSplit = 1
	return m
}

// TestParallelCacheHits checks the stored crises' fingerprint memos pay off
// during online identification: repeated lookups within one threshold window
// hit, and telemetry counts one hit or miss per candidate compared.
func TestParallelCacheHits(t *testing.T) {
	const seed, epochs = 7, 420
	s := equivStream(t, seed)
	reg := telemetry.NewRegistry()
	m := equivMonitor(t, s, 0, reg)
	lastActive := false
	label := ""
	compared := uint64(0)
	for i := 0; i < epochs; i++ {
		rows, act, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.ObserveEpoch(rows)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Advice != nil {
			compared += uint64(rep.Advice.Candidates)
		}
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
	hits := reg.Counter("dcfp_fingerprint_cache_total", "", telemetry.Label{Key: "result", Value: "hit"}).Value()
	misses := reg.Counter("dcfp_fingerprint_cache_total", "", telemetry.Label{Key: "result", Value: "miss"}).Value()
	if misses == 0 {
		t.Fatal("identification never computed a memoizable fingerprint (no labeled candidates reached?)")
	}
	if hits == 0 {
		t.Fatalf("fingerprint memo never hit (misses=%d)", misses)
	}
	if hits+misses != compared {
		t.Fatalf("telemetry counted %d hits + %d misses, advice compared %d candidates", hits, misses, compared)
	}
	if w := reg.Gauge("dcfp_monitor_workers", "").Value(); w < 1 {
		t.Fatalf("dcfp_monitor_workers = %v", w)
	}
}

// benchMonitorSized builds a monitor over nMachines x 100 metrics with the
// given worker knob and pre-generates sample epochs.
func benchMonitorSized(b *testing.B, nMachines, workers int) (*Monitor, [][][]float64) {
	b.Helper()
	const nMetrics = 100
	names := make([]string, nMetrics)
	for i := range names {
		names[i] = fmt.Sprintf("metric_%03d", i)
	}
	cat, err := metrics.NewCatalog(names)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(cat, sla.Config{
		KPIs:           []sla.KPI{{Name: "metric_000", Metric: 0, Threshold: 1e12}},
		CrisisFraction: 0.10,
	})
	cfg.Workers = workers
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	// Pre-generate a window of epochs so row synthesis stays off the
	// clock; cap the window for very large fleets to bound fixture memory
	// (10000 machines x 100 metrics x 8B = 8MB per epoch).
	window := 16
	if nMachines >= 10000 {
		window = 4
	}
	epochs := make([][][]float64, window)
	for e := range epochs {
		rows := make([][]float64, nMachines)
		for i := range rows {
			row := make([]float64, nMetrics)
			for j := range row {
				row[j] = 100 + rng.NormFloat64()*10
			}
			rows[i] = row
		}
		epochs[e] = rows
	}
	return m, epochs
}

// BenchmarkObserveEpochScale sweeps datacenter size x worker pool. The
// Workers=1 rows are the serial reference; Workers=4 splits the metric
// columns from 250 machines up (100 machines stays serial). SetBytes reports
// ingestion bandwidth over the raw sample matrix (machines x 100 metrics
// x 8 bytes per epoch).
func BenchmarkObserveEpochScale(b *testing.B) {
	for _, machines := range []int{100, 500, 2000, 10000} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%dmach/workers%d", machines, workers), func(b *testing.B) {
				m, epochs := benchMonitorSized(b, machines, workers)
				b.SetBytes(int64(machines) * 100 * 8)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := m.ObserveEpoch(epochs[i%len(epochs)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
