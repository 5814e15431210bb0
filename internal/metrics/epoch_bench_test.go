package metrics_test

import (
	"testing"

	"dcfp/internal/dcsim"
	"dcfp/internal/metrics"
	"dcfp/internal/quantile"
)

// summarizeEpoch returns one generated 2 000-machine epoch and a function
// that takes it through the single-node path's filter and summary: the rows
// into an Exact per metric, three quantiles per metric out.
func summarizeEpoch(tb testing.TB) func() {
	tb.Helper()
	sc := dcsim.DefaultStreamConfig(1)
	sc.Machines = 2000
	s, err := dcsim.NewStream(sc)
	if err != nil {
		tb.Fatal(err)
	}
	rows, _, err := s.Next()
	if err != nil {
		tb.Fatal(err)
	}
	nm := s.Catalog().Len()
	agg, err := metrics.NewAggregator(nm, func() quantile.Estimator { return quantile.NewExact() })
	if err != nil {
		tb.Fatal(err)
	}
	reporting := make([]bool, len(rows))
	out := make([][3]float64, nm)
	return func() {
		if _, err := agg.ObserveBatchFiltered(0, rows, reporting); err != nil {
			tb.Fatal(err)
		}
		if _, err := agg.SummarizeInto(1, out, nil); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkSummarizeEpoch is the §3.2 kernel of one steady epoch: a real
// 2 000 × 100 dcsim epoch through ObserveBatchFiltered and SummarizeInto
// per op.
func BenchmarkSummarizeEpoch(b *testing.B) {
	epoch := summarizeEpoch(b)
	epoch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch()
	}
}

// TestSummarizeEpochNoAllocs: once the estimators have grown to the epoch's
// size, filtering and summarizing an epoch allocates nothing.
func TestSummarizeEpochNoAllocs(t *testing.T) {
	epoch := summarizeEpoch(t)
	epoch()
	if a := testing.AllocsPerRun(10, epoch); a != 0 {
		t.Errorf("%v allocs per filtered and summarized epoch after warm-up, want 0", a)
	}
}
