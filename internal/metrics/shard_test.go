package metrics

import (
	"math/rand"
	"strings"
	"testing"

	"dcfp/internal/quantile"
)

func randRows(t *testing.T, seed int64, rows, width int) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, rows)
	for i := range out {
		r := make([]float64, width)
		for j := range r {
			r[j] = rng.NormFloat64() * 100
		}
		out[i] = r
	}
	return out
}

// TestAggregatorShardedMatchesSerial feeds the same rows one at a time into
// one shard and via sharded batches and requires byte-identical summaries under the exact
// estimator, for several shard counts.
func TestAggregatorShardedMatchesSerial(t *testing.T) {
	const width = 5
	rows := randRows(t, 21, 200, width)
	newExact := func() quantile.Estimator { return quantile.NewExact() }

	serial, err := NewAggregator(width, newExact)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if _, err := serial.ObserveBatchFiltered(0, rows[i:i+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	want, _, err := serial.SummarizeLenient(nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{2, 3, 8} {
		a, err := NewAggregator(width, newExact)
		if err != nil {
			t.Fatal(err)
		}
		a.EnsureShards(shards)
		n := len(rows)
		for w := 0; w < shards; w++ {
			lo, hi := w*n/shards, (w+1)*n/shards
			if _, err := a.ObserveBatchFiltered(w, rows[lo:hi], nil); err != nil {
				t.Fatal(err)
			}
		}
		got, gaps, err := a.SummarizeLenientParallel(shards, nil)
		if err != nil || gaps != 0 {
			t.Fatalf("gaps %d, err %v", gaps, err)
		}
		for m := range want {
			if got[m] != want[m] {
				t.Fatalf("shards=%d metric %d: %v != %v", shards, m, got[m], want[m])
			}
		}
	}
}

// TestAggregatorShardsResetBetweenEpochs runs two epochs through a sharded
// aggregator and checks the second epoch is not polluted by the first.
func TestAggregatorShardsResetBetweenEpochs(t *testing.T) {
	a, err := NewAggregator(2, func() quantile.Estimator { return quantile.NewExact() })
	if err != nil {
		t.Fatal(err)
	}
	a.EnsureShards(2)
	if _, err := a.ObserveBatchFiltered(0, [][]float64{{1, 10}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ObserveBatchFiltered(1, [][]float64{{3, 30}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.SummarizeLenient(nil); err != nil {
		t.Fatal(err)
	}
	// Second epoch: only one shard used, one row.
	if _, err := a.ObserveBatchFiltered(0, [][]float64{{7, 70}}, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.SummarizeLenient(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != [3]float64{7, 7, 7} || got[1] != [3]float64{70, 70, 70} {
		t.Fatalf("second epoch summary polluted: %v", got)
	}
}

func TestObserveBatchValidation(t *testing.T) {
	a, err := NewAggregator(2, func() quantile.Estimator { return quantile.NewExact() })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ObserveBatchFiltered(1, [][]float64{{1, 2}}, nil); err == nil {
		t.Fatal("want out-of-range shard error before EnsureShards")
	}
	if _, err := a.ObserveBatchFiltered(-1, nil, nil); err == nil {
		t.Fatal("want negative-shard error")
	}
	if _, err := a.ObserveBatchFiltered(0, [][]float64{{1}}, nil); err == nil {
		t.Fatal("want row-width error")
	}
	if _, err := a.ObserveBatchFiltered(0, [][]float64{{1, 2}}, make([]bool, 2)); err == nil {
		t.Fatal("want reporting-length error")
	}
}

// nonMergeable is an Estimator without Merge, to exercise the capability
// error.
type nonMergeable struct{ quantile.Estimator }

func TestShardedNeedsMerger(t *testing.T) {
	a, err := NewAggregator(1, func() quantile.Estimator {
		return nonMergeable{quantile.NewExact()}
	})
	if err != nil {
		t.Fatal(err)
	}
	a.EnsureShards(2)
	if _, err := a.ObserveBatchFiltered(0, [][]float64{{1}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ObserveBatchFiltered(1, [][]float64{{2}}, nil); err != nil {
		t.Fatal(err)
	}
	_, _, err = a.SummarizeLenient(nil)
	if err == nil || !strings.Contains(err.Error(), "quantile.Merger") {
		t.Fatalf("err = %v, want Merger capability error", err)
	}
}
