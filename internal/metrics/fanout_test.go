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
		got := make([][3]float64, width)
		gaps, err := a.SummarizeInto(workers, got, nil)
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
	got := make([][3]float64, 2)
	if _, err := a.SummarizeInto(2, got, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ObserveBatchFiltered(2, [][]float64{{7, 70}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SummarizeInto(2, got, nil); err != nil {
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
// values in insertion order, the summary of the same split — taken after a
// summary of the first pass left every worker's selection scratch dirty —
// and error.
func observeWorkers(t *testing.T, workers, width int, rows [][]float64) (dropped int, reporting []bool, vals [][]float64, sum [][3]float64, err error) {
	a := newExactAggregator(t, width)
	sum = make([][3]float64, width)
	for pass := 0; pass < 2; pass++ {
		a.Reset()
		reporting = make([]bool, len(rows))
		for i := range reporting {
			reporting[i] = true
		}
		dropped, err = a.ObserveBatchFiltered(workers, rows, reporting)
		if pass == 0 {
			if _, serr := a.SummarizeInto(workers, sum, nil); serr != nil {
				t.Fatal(serr)
			}
		}
	}
	vals = estValues(a)
	if _, serr := a.SummarizeInto(workers, sum, nil); serr != nil {
		t.Fatal(serr)
	}
	return dropped, reporting, vals, sum, err
}

// FuzzObserveBatchFilteredWorkers: splitting the filter over 2–4 workers
// leaves the same drop count, reporting flags, error, and every estimator's
// values in the same order as the serial path, on rows with nil machines,
// blanked rows, NaN/±Inf cells and, when short is in range, one row of the
// wrong width. The summary at 1–4 workers, each worker selecting in its own
// scratch, is bit-equal to the serial one and to a fresh Exact fed the
// same column.
func FuzzObserveBatchFilteredWorkers(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(7), int16(-1))
	f.Add(int64(2), uint16(300), uint8(7), int16(-1))
	f.Add(int64(3), uint16(600), uint8(100), int16(290))
	f.Add(int64(4), uint16(257), uint8(3), int16(0))
	f.Add(int64(5), uint16(40), uint8(1), int16(39))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, width uint8, short int16) {
		nm := 1 + int(width)%128
		rows := dirtyRows(rand.New(rand.NewSource(seed)), int(n)%1200, nm, int(short))
		wantDropped, wantRep, wantVals, wantSum, wantErr := observeWorkers(t, 1, nm, rows)
		for m, col := range wantVals {
			fresh := quantile.NewExact()
			fresh.InsertBatch(col)
			want, err := quantile.Summarize(fresh)
			if len(col) == 0 {
				want, err = [3]float64{}, nil // a gap without prev reads zeros
			}
			if err != nil || !sameBits(wantSum[m][:], want[:]) {
				t.Fatalf("serial summary of metric %d is %v, a fresh Exact's %v (%v)", m, wantSum[m], want, err)
			}
		}
		for workers := 2; workers <= 4; workers++ {
			dropped, rep, vals, sum, err := observeWorkers(t, workers, nm, rows)
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
				if !sameBits(sum[m][:], wantSum[m][:]) {
					t.Fatalf("%s: metric %d summary %v, serial %v", label, m, sum[m], wantSum[m])
				}
			}
		}
	})
}

// estValues returns every estimator's values in insertion order.
func estValues(a *Aggregator) [][]float64 {
	vals := make([][]float64, len(a.ests))
	for m, est := range a.ests {
		vals[m] = slices.Clone(est.(*quantile.Exact).RawValues())
	}
	return vals
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestObserveBatchRetainedMatchesFiltered: keeping the batch changes nothing
// ObserveBatchFiltered reports — drops, flags, every estimator's values in
// order — at 1–4 workers and around the strip size; the kept slab holds
// every cell of every delivered row, finite or not, metric-major, and the
// per-metric counts are the columns' non-finite cells.
func TestObserveBatchRetainedMatchesFiltered(t *testing.T) {
	const nm = 9
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{0, 1, 255, 256, 257, 600} {
		rows := dirtyRows(rng, n, nm, -1)
		var delivered [][]float64
		for _, row := range rows {
			if row != nil {
				delivered = append(delivered, row)
			}
		}
		k := len(delivered)
		wantDst := make([]float64, nm*k)
		wantBad := make([]int, nm)
		for i, row := range delivered {
			for m, v := range row {
				wantDst[m*k+i] = v
				if math.IsNaN(v) || math.IsInf(v, 0) {
					wantBad[m]++
				}
			}
		}
		ref := newExactAggregator(t, nm)
		wantRep := make([]bool, n)
		wantDropped, err := ref.ObserveBatchFiltered(1, rows, wantRep)
		if err != nil {
			t.Fatal(err)
		}
		for workers := 1; workers <= 4; workers++ {
			a := newExactAggregator(t, nm)
			rep := make([]bool, n)
			dst := make([]float64, nm*k)
			bad := make([]int, nm)
			dropped, err := a.ObserveBatchRetained(workers, rows, rep, dst, bad)
			label := fmt.Sprintf("n=%d workers=%d", n, workers)
			if err != nil || dropped != wantDropped || !slices.Equal(rep, wantRep) {
				t.Fatalf("%s: dropped %d (want %d), err %v, flags equal %v", label, dropped, wantDropped, err, slices.Equal(rep, wantRep))
			}
			if !sameBits(dst, wantDst) || !slices.Equal(bad, wantBad) {
				t.Fatalf("%s: kept slab or non-finite counts differ", label)
			}
			for m, vals := range estValues(a) {
				if !sameBits(vals, estValues(ref)[m]) {
					t.Fatalf("%s: metric %d holds other values than the filter's", label, m)
				}
			}
		}
	}
	a := newExactAggregator(t, 2)
	if _, err := a.ObserveBatchRetained(1, [][]float64{{1, 2}, nil}, nil, make([]float64, 3), make([]int, 2)); err == nil {
		t.Fatal("want an error for a slab not NumMetrics × delivered rows long")
	}
	if _, err := a.ObserveBatchRetained(1, [][]float64{{1, 2}}, nil, make([]float64, 2), make([]int, 1)); err == nil {
		t.Fatal("want an error for counts not NumMetrics long")
	}
}

// TestObserveColumnsMatchesRows: metric-major blocks given in any order go
// to every estimator in that order, column by column, at 1–4 workers; each
// block lands in the slab at its slot, and the counts are the non-finite
// cells. A malformed shape is refused before anything is ingested.
func TestObserveColumnsMatchesRows(t *testing.T) {
	const nm = 6
	rng := rand.New(rand.NewSource(67))
	rows := dirtyRows(rng, 700, nm, -1)
	bounds := []int{0, 10, 300, 301, 700}
	var srcs [][]float64
	var sizes []int
	for b := 0; b+1 < len(bounds); b++ {
		sub := rows[bounds[b]:bounds[b+1]]
		cols, _, err := ScanBatchFiltered(sub, nm, make([]bool, len(sub)), make([]float64, nm*len(sub)))
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, cols)
		sizes = append(sizes, len(cols)/nm)
	}
	// Given out of machine order; slots follow machine order.
	order := []int{2, 0, 3, 1}
	given := make([][]float64, len(order))
	at := make([]int, len(order))
	for k, b := range order {
		given[k] = srcs[b]
		for _, n := range sizes[:b] {
			at[k] += n
		}
	}
	stride := 0
	for _, n := range sizes {
		stride += n
	}
	want := make([][]float64, nm)
	wantDst := make([]float64, nm*stride)
	wantBad := make([]int, nm)
	for k, src := range given {
		n := len(src) / nm
		for m := 0; m < nm; m++ {
			for i, v := range src[m*n : (m+1)*n] {
				wantDst[m*stride+at[k]+i] = v
				if math.IsNaN(v) || math.IsInf(v, 0) {
					wantBad[m]++
					continue
				}
				want[m] = append(want[m], v)
			}
		}
	}
	for workers := 1; workers <= 4; workers++ {
		a := newExactAggregator(t, nm)
		dst := make([]float64, nm*stride)
		bad := make([]int, nm)
		if err := a.ObserveColumns(workers, given, at, dst, bad); err != nil {
			t.Fatal(err)
		}
		if !sameBits(dst, wantDst) || !slices.Equal(bad, wantBad) {
			t.Fatalf("workers=%d: slab or non-finite counts differ", workers)
		}
		for m, vals := range estValues(a) {
			if !sameBits(vals, want[m]) {
				t.Fatalf("workers=%d: metric %d holds %d values, want %d in block order", workers, m, len(vals), len(want[m]))
			}
		}
	}
	a := newExactAggregator(t, nm)
	for _, tc := range []struct {
		name string
		srcs [][]float64
		at   []int
		dst  []float64
		bad  []int
	}{
		{"block not whole metrics", [][]float64{make([]float64, nm+1)}, []int{0}, make([]float64, nm*2), make([]int, nm)},
		{"block past the slab", [][]float64{make([]float64, nm*2)}, []int{1}, make([]float64, nm*2), make([]int, nm)},
		{"negative slot", [][]float64{make([]float64, nm)}, []int{-1}, make([]float64, nm*2), make([]int, nm)},
		{"slots for other blocks", [][]float64{make([]float64, nm)}, nil, make([]float64, nm), make([]int, nm)},
		{"slab not whole metrics", [][]float64{make([]float64, nm)}, []int{0}, make([]float64, nm+1), make([]int, nm)},
		{"short counts", [][]float64{make([]float64, nm)}, []int{0}, make([]float64, nm), make([]int, nm-1)},
	} {
		if err := a.ObserveColumns(1, tc.srcs, tc.at, tc.dst, tc.bad); err == nil {
			t.Errorf("%s: want an error", tc.name)
		}
		for m, vals := range estValues(a) {
			if len(vals) != 0 {
				t.Fatalf("%s: metric %d ingested %d values before the refusal", tc.name, m, len(vals))
			}
		}
	}
}
