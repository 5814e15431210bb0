package metrics

import (
	"sync"
	"testing"

	"dcfp/internal/quantile"
)

func TestNewCatalogValidation(t *testing.T) {
	if _, err := NewCatalog([]string{"a", ""}); err == nil {
		t.Fatal("want error on empty name")
	}
	if _, err := NewCatalog([]string{"a", "a"}); err == nil {
		t.Fatal("want error on duplicate name")
	}
}

func TestCatalogLookup(t *testing.T) {
	c, err := NewCatalog([]string{"cpu", "queue", "latency"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Name(1) != "queue" {
		t.Fatalf("Name(1) = %q", c.Name(1))
	}
	i, ok := c.Index("latency")
	if !ok || i != 2 {
		t.Fatalf("Index = %d, %v", i, ok)
	}
	if _, ok := c.Index("nope"); ok {
		t.Fatal("Index of missing name should be !ok")
	}
	if len(c.Names()) != 3 {
		t.Fatal("Names length wrong")
	}
}

func TestQuantileTrackRoundTrip(t *testing.T) {
	tr, err := NewQuantileTrack(2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEpochs() != 0 || tr.NumMetrics() != 2 {
		t.Fatal("fresh track dims wrong")
	}
	if err := tr.AppendEpoch([][3]float64{{1, 2, 3}, {4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.AppendEpoch([][3]float64{{7, 8, 9}, {10, 11, 12}}); err != nil {
		t.Fatal(err)
	}
	if tr.NumEpochs() != 2 {
		t.Fatalf("NumEpochs = %d", tr.NumEpochs())
	}
	v, err := tr.At(1, 1, 2)
	if err != nil || v != 12 {
		t.Fatalf("At = %v, %v", v, err)
	}
	row, err := tr.EpochRow(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4, 5, 6}
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("EpochRow = %v", row)
		}
	}
}

// TestQuantileTrackBlocksParallel grows a track across block boundaries,
// fills it from concurrent writers (run it under -race), and requires every
// epoch's row to read back — through At, EpochRow and a gob round trip into
// the flat encoding — as written.
func TestQuantileTrackBlocksParallel(t *testing.T) {
	const nm, writers = 3, 4
	tr, err := NewQuantileTrack(nm)
	if err != nil {
		t.Fatal(err)
	}
	val := func(e, m, qi int) float64 { return float64(e*100 + m*10 + qi) }
	summary := func(e int) [][3]float64 {
		s := make([][3]float64, nm)
		for m := range s {
			s[m] = [3]float64{val(e, m, 0), val(e, m, 1), val(e, m, 2)}
		}
		return s
	}
	for e := 0; e < trackBlockEpochs-2; e++ {
		if err := tr.AppendEpoch(summary(e)); err != nil {
			t.Fatal(err)
		}
	}
	// Grow straddles the first block boundary and fills a second block.
	lo := tr.NumEpochs()
	if err := tr.Grow(trackBlockEpochs + 5); err != nil {
		t.Fatal(err)
	}
	n := tr.NumEpochs()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := lo + w; e < n; e += writers {
				if err := tr.SetEpoch(Epoch(e), summary(e)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := tr.AppendEpoch(summary(n)); err != nil {
		t.Fatal(err)
	}
	blob, err := tr.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back QuantileTrack
	if err := back.GobDecode(blob); err != nil {
		t.Fatal(err)
	}
	if back.NumEpochs() != n+1 || tr.NumEpochs() != n+1 || len(tr.blocks) != 3 {
		t.Fatalf("%d epochs, %d decoded, %d blocks; want %d, %d, 3", tr.NumEpochs(), back.NumEpochs(), len(tr.blocks), n+1, n+1)
	}
	for e := 0; e <= n; e++ {
		row, err := tr.EpochRow(Epoch(e))
		if err != nil {
			t.Fatal(err)
		}
		if len(row) != nm*NumQuantiles || cap(row) != len(row) {
			t.Fatalf("epoch %d: row len %d cap %d", e, len(row), cap(row))
		}
		for m := 0; m < nm; m++ {
			for qi := 0; qi < NumQuantiles; qi++ {
				a, _ := tr.At(Epoch(e), m, qi)
				b, _ := back.At(Epoch(e), m, qi)
				if want := val(e, m, qi); a != want || b != want || row[m*NumQuantiles+qi] != want {
					t.Fatalf("epoch %d metric %d q%d: At %v, EpochRow %v, decoded %v; want %v", e, m, qi, a, row[m*NumQuantiles+qi], b, want)
				}
			}
		}
	}
}

func TestQuantileTrackErrors(t *testing.T) {
	if _, err := NewQuantileTrack(0); err == nil {
		t.Fatal("want error on zero metrics")
	}
	tr, _ := NewQuantileTrack(1)
	if err := tr.AppendEpoch([][3]float64{{1, 2, 3}, {4, 5, 6}}); err == nil {
		t.Fatal("want error on wrong metric count")
	}
	_ = tr.AppendEpoch([][3]float64{{1, 2, 3}})
	if _, err := tr.At(5, 0, 0); err != ErrEpochRange {
		t.Fatalf("At out of range err = %v", err)
	}
	if _, err := tr.At(-1, 0, 0); err != ErrEpochRange {
		t.Fatalf("At(-1) err = %v", err)
	}
	if _, err := tr.At(0, 1, 0); err == nil {
		t.Fatal("want metric index error")
	}
	if _, err := tr.At(0, 0, 3); err == nil {
		t.Fatal("want quantile index error")
	}
	if _, err := tr.EpochRow(9); err != ErrEpochRange {
		t.Fatal("want epoch range error")
	}
}

func TestAggregatorExact(t *testing.T) {
	a, err := NewAggregator(2, func() quantile.Estimator { return quantile.NewExact() })
	if err != nil {
		t.Fatal(err)
	}
	// 5 machines, metric 0 = machine index, metric 1 = 10*index.
	for i := 0; i < 5; i++ {
		if _, err := a.ObserveBatchFiltered(0, [][]float64{{float64(i), float64(10 * i)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := make([][3]float64, 2)
	if gaps, err := a.SummarizeInto(1, s, nil); err != nil || gaps != 0 {
		t.Fatalf("SummarizeInto: gaps %d, err %v", gaps, err)
	}
	if s[0][1] != 2 { // median of 0..4
		t.Fatalf("median metric0 = %v", s[0][1])
	}
	if s[1][1] != 20 {
		t.Fatalf("median metric1 = %v", s[1][1])
	}
	// After SummarizeInto the estimators are reset: every metric is a gap.
	if gaps, err := a.SummarizeInto(1, s, nil); err != nil || gaps != 2 {
		t.Fatalf("SummarizeInto on reset aggregator: gaps %d, err %v; want 2 gaps", gaps, err)
	}
}

func TestAggregatorValidation(t *testing.T) {
	if _, err := NewAggregator(0, func() quantile.Estimator { return quantile.NewExact() }); err == nil {
		t.Fatal("want error on zero metrics")
	}
	if _, err := NewAggregator(1, nil); err == nil {
		t.Fatal("want error on nil factory")
	}
	a, _ := NewAggregator(2, func() quantile.Estimator { return quantile.NewExact() })
	if _, err := a.ObserveBatchFiltered(0, [][]float64{{1}}, nil); err == nil {
		t.Fatal("want row-length error")
	}
	if _, err := a.SummarizeInto(1, make([][3]float64, 1), nil); err == nil {
		t.Fatal("want summary-buffer length error")
	}
	if _, err := a.SummarizeInto(1, make([][3]float64, 2), make([][3]float64, 1)); err == nil {
		t.Fatal("want fallback length error")
	}
}

// buildTrack creates a track for nm metrics over n epochs where the value of
// (metric m, quantile qi) at epoch e is gen(e, m, qi).
func buildTrack(t *testing.T, nm, n int, gen func(e, m, qi int) float64) *QuantileTrack {
	t.Helper()
	tr, err := NewQuantileTrack(nm)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < n; e++ {
		row := make([][3]float64, nm)
		for m := 0; m < nm; m++ {
			for qi := 0; qi < NumQuantiles; qi++ {
				row[m][qi] = gen(e, m, qi)
			}
		}
		if err := tr.AppendEpoch(row); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestComputeThresholdsBasic(t *testing.T) {
	// Metric values uniform 0..999 over 1000 epochs: 2nd/98th percentiles
	// land near 20 and 980.
	tr := buildTrack(t, 1, 1000, func(e, m, qi int) float64 { return float64(e) })
	cfg := ThresholdConfig{ColdPercentile: 2, HotPercentile: 98, WindowEpochs: 1000}
	th, err := ComputeThresholds(tr, func(Epoch) bool { return true }, 999, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if th.NormalEpochs != 1000 {
		t.Fatalf("NormalEpochs = %d", th.NormalEpochs)
	}
	for qi := 0; qi < NumQuantiles; qi++ {
		if th.Cold[0][qi] < 15 || th.Cold[0][qi] > 25 {
			t.Fatalf("Cold = %v", th.Cold[0][qi])
		}
		if th.Hot[0][qi] < 975 || th.Hot[0][qi] > 985 {
			t.Fatalf("Hot = %v", th.Hot[0][qi])
		}
	}
	if th.State(0, 0, 10) != -1 || th.State(0, 0, 500) != 0 || th.State(0, 0, 990) != 1 {
		t.Fatal("State discretization wrong")
	}
	if th.NumMetrics() != 1 {
		t.Fatal("NumMetrics wrong")
	}
}

func TestComputeThresholdsExcludesCrisisEpochs(t *testing.T) {
	// Epochs 500..599 are a crisis with extreme values; excluding them
	// should keep the hot threshold near the normal range.
	tr := buildTrack(t, 1, 1000, func(e, m, qi int) float64 {
		if e >= 500 && e < 600 {
			return 1e6
		}
		return float64(e % 100)
	})
	cfg := ThresholdConfig{ColdPercentile: 2, HotPercentile: 98, WindowEpochs: 1000}
	normal := func(e Epoch) bool { return e < 500 || e >= 600 }
	th, err := ComputeThresholds(tr, normal, 999, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if th.NormalEpochs != 900 {
		t.Fatalf("NormalEpochs = %d", th.NormalEpochs)
	}
	if th.Hot[0][0] > 100 {
		t.Fatalf("Hot = %v; crisis epochs leaked into threshold", th.Hot[0][0])
	}
	// Without exclusion the hot threshold explodes.
	th2, err := ComputeThresholds(tr, func(Epoch) bool { return true }, 999, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if th2.Hot[0][0] < 1000 {
		t.Fatalf("non-excluding Hot = %v, want contaminated value", th2.Hot[0][0])
	}
}

func TestComputeThresholdsWindowClamp(t *testing.T) {
	tr := buildTrack(t, 1, 50, func(e, m, qi int) float64 { return float64(e) })
	cfg := ThresholdConfig{ColdPercentile: 2, HotPercentile: 98, WindowEpochs: 1000}
	th, err := ComputeThresholds(tr, func(Epoch) bool { return true }, 49, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if th.NormalEpochs != 50 {
		t.Fatalf("NormalEpochs = %d, want clamped 50", th.NormalEpochs)
	}
}

func TestComputeThresholdsWindowRestricts(t *testing.T) {
	// Values jump at epoch 500; a short window ending at 999 sees only
	// the new regime.
	tr := buildTrack(t, 1, 1000, func(e, m, qi int) float64 {
		if e >= 500 {
			return 1000 + float64(e%10)
		}
		return float64(e % 10)
	})
	cfg := ThresholdConfig{ColdPercentile: 2, HotPercentile: 98, WindowEpochs: 100}
	th, err := ComputeThresholds(tr, func(Epoch) bool { return true }, 999, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if th.Cold[0][0] < 1000 {
		t.Fatalf("Cold = %v; window did not restrict to recent regime", th.Cold[0][0])
	}
}

func TestComputeThresholdsErrors(t *testing.T) {
	tr := buildTrack(t, 1, 10, func(e, m, qi int) float64 { return 1 })
	good := ThresholdConfig{ColdPercentile: 2, HotPercentile: 98, WindowEpochs: 10}
	if _, err := ComputeThresholds(nil, func(Epoch) bool { return true }, 9, good); err == nil {
		t.Fatal("want nil-track error")
	}
	if _, err := ComputeThresholds(tr, nil, 9, good); err == nil {
		t.Fatal("want nil-predicate error")
	}
	if _, err := ComputeThresholds(tr, func(Epoch) bool { return true }, 99, good); err != ErrEpochRange {
		t.Fatal("want epoch range error")
	}
	if _, err := ComputeThresholds(tr, func(Epoch) bool { return false }, 9, good); err != ErrNoNormalEpochs {
		t.Fatal("want ErrNoNormalEpochs")
	}
	bad := ThresholdConfig{ColdPercentile: 98, HotPercentile: 2, WindowEpochs: 10}
	if _, err := ComputeThresholds(tr, func(Epoch) bool { return true }, 9, bad); err == nil {
		t.Fatal("want percentile-pair error")
	}
	bad2 := ThresholdConfig{ColdPercentile: 2, HotPercentile: 98, WindowEpochs: 0}
	if _, err := ComputeThresholds(tr, func(Epoch) bool { return true }, 9, bad2); err == nil {
		t.Fatal("want window error")
	}
}

func TestDefaultThresholdConfig(t *testing.T) {
	cfg := DefaultThresholdConfig()
	if cfg.ColdPercentile != 2 || cfg.HotPercentile != 98 {
		t.Fatal("default percentiles wrong")
	}
	if cfg.WindowEpochs != 240*EpochsPerDay {
		t.Fatal("default window wrong")
	}
	if EpochsPerDay != 96 {
		t.Fatalf("EpochsPerDay = %d, want 96", EpochsPerDay)
	}
}
