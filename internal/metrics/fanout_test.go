package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dcfp/internal/quantile"
)

func newExactAggregator(t testing.TB, width int) *Aggregator {
	t.Helper()
	a, err := NewAggregator(width, func() quantile.Estimator { return quantile.NewExact() })
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAggregatorShardedMatchesSerial feeds the same rows one at a time into a
// serial aggregator and as one batch split over the metric columns, and
// requires byte-identical summaries, for several worker counts — more
// workers than metrics included.
func TestAggregatorShardedMatchesSerial(t *testing.T) {
	const width = 5
	rows := dirtyRows(rand.New(rand.NewSource(21)), 600, width, -1)
	serial := newExactAggregator(t, width)
	for i := range rows {
		if _, err := serial.ObserveBatchFiltered(1, rows[i:i+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	want, wantGaps, err := serial.SummarizeLenient(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5, 8} {
		a := newExactAggregator(t, width)
		if _, err := a.ObserveBatchFiltered(workers, rows, nil); err != nil {
			t.Fatal(err)
		}
		got, gaps, err := a.SummarizeLenientParallel(workers, nil)
		if err != nil || gaps != wantGaps {
			t.Fatalf("workers=%d: gaps %d (want %d), err %v", workers, gaps, wantGaps, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: summary %v, serial %v", workers, got, want)
		}
	}
}

// TestAggregatorShardsResetBetweenEpochs runs two epochs through an
// aggregator split over two workers and checks the second epoch is not
// polluted by the first.
func TestAggregatorShardsResetBetweenEpochs(t *testing.T) {
	a := newExactAggregator(t, 2)
	if _, err := a.ObserveBatchFiltered(2, [][]float64{{1, 10}, {3, 30}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.SummarizeLenientParallel(2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ObserveBatchFiltered(2, [][]float64{{7, 70}}, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.SummarizeLenientParallel(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != [3]float64{7, 7, 7} || got[1] != [3]float64{70, 70, 70} {
		t.Fatalf("second epoch summary polluted: %v", got)
	}
}

func TestObserveBatchValidation(t *testing.T) {
	a := newExactAggregator(t, 2)
	for _, workers := range []int{-1, 0, 1, 2, 3} {
		if _, err := a.ObserveBatchFiltered(workers, [][]float64{{1}}, nil); err == nil {
			t.Fatalf("workers=%d: want row-width error", workers)
		}
		if _, err := a.ObserveBatchFiltered(workers, [][]float64{{1, 2}}, make([]bool, 2)); err == nil {
			t.Fatalf("workers=%d: want reporting-length error", workers)
		}
		a.Reset()
	}
}

// observeWorkers filters rows through a fresh exact aggregator split over
// the given number of workers, twice (the second time on warm scratch and
// reset estimators), and returns the second pass's drop count, reporting
// flags (rows past an error keep their initial true), every estimator's
// values in insertion order, and error.
func observeWorkers(t *testing.T, workers, width int, rows [][]float64) (dropped int, reporting []bool, vals [][]float64, err error) {
	a := newExactAggregator(t, width)
	for pass := 0; pass < 2; pass++ {
		a.Reset()
		reporting = make([]bool, len(rows))
		for i := range reporting {
			reporting[i] = true
		}
		dropped, err = a.ObserveBatchFiltered(workers, rows, reporting)
	}
	vals = make([][]float64, width)
	for m, est := range a.ests {
		vals[m] = slices.Clone(est.(*quantile.Exact).RawValues())
	}
	return dropped, reporting, vals, err
}

// FuzzObserveBatchFilteredWorkers: splitting the filter over 2–4 workers
// leaves the same drop count, reporting flags, error, and every estimator's
// values in the same order as the serial path, on rows with nil machines,
// blanked rows, NaN/±Inf cells and, when short is in range, one row of the
// wrong width.
func FuzzObserveBatchFilteredWorkers(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(7), int16(-1))
	f.Add(int64(2), uint16(300), uint8(7), int16(-1))
	f.Add(int64(3), uint16(600), uint8(100), int16(290))
	f.Add(int64(4), uint16(257), uint8(3), int16(0))
	f.Add(int64(5), uint16(40), uint8(1), int16(39))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, width uint8, short int16) {
		nm := 1 + int(width)%128
		rows := dirtyRows(rand.New(rand.NewSource(seed)), int(n)%1200, nm, int(short))
		wantDropped, wantRep, wantVals, wantErr := observeWorkers(t, 1, nm, rows)
		for workers := 2; workers <= 4; workers++ {
			dropped, rep, vals, err := observeWorkers(t, workers, nm, rows)
			label := fmt.Sprintf("workers=%d", workers)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, serial %v", label, err, wantErr)
			}
			if dropped != wantDropped {
				t.Fatalf("%s: dropped %d, serial %d", label, dropped, wantDropped)
			}
			if !slices.Equal(rep, wantRep) {
				t.Fatalf("%s: reporting flags diverge from the serial path's", label)
			}
			for m := range vals {
				if !slices.EqualFunc(vals[m], wantVals[m], func(a, b float64) bool {
					return math.Float64bits(a) == math.Float64bits(b)
				}) {
					t.Fatalf("%s: metric %d holds %d values, serial %d, or another order", label, m, len(vals[m]), len(wantVals[m]))
				}
			}
		}
	})
}
