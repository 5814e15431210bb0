package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dcfp/internal/quantile"
)

// guardEstimator wraps Exact and records any non-finite insert — the
// property the filtered ingestion paths must guarantee never happens. It
// overrides every insert method, so none reaches the embedded Exact
// unchecked, and counts what it checked in seen, so a test can tell a clean
// run from one that never reached it.
type guardEstimator struct {
	quantile.Exact
	bad, seen *int
}

// check inspects the observations the last insert appended, as the
// estimator stores them.
func (g *guardEstimator) check(from int) {
	for _, v := range g.Exact.RawValues()[from:] {
		*g.seen++
		if math.IsNaN(v) || math.IsInf(v, 0) {
			*g.bad++
		}
	}
}

func (g *guardEstimator) Insert(v float64) {
	n := g.Count()
	g.Exact.Insert(v)
	g.check(n)
}

func (g *guardEstimator) InsertBatch(vs []float64) {
	n := g.Count()
	g.Exact.InsertBatch(vs)
	g.check(n)
}

func (g *guardEstimator) GatherFinite(strip [][]float64, m int, drops []int, dst []float64) int {
	n := g.Count()
	d := g.Exact.GatherFinite(strip, m, drops, dst)
	g.check(n)
	return d
}

func (g *guardEstimator) InsertFiniteColumn(col, dst []float64) int {
	n := g.Count()
	d := g.Exact.InsertFiniteColumn(col, dst)
	g.check(n)
	return d
}

func TestObserveFilteredDropsNonFinite(t *testing.T) {
	bad, seen := 0, 0
	a, err := NewAggregator(3, func() quantile.Estimator { return &guardEstimator{bad: &bad, seen: &seen} })
	if err != nil {
		t.Fatal(err)
	}
	d, err := a.ObserveBatchFiltered(0, [][]float64{{1, math.NaN(), math.Inf(1)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Fatalf("dropped %d values, want 2", d)
	}
	d, err = a.ObserveBatchFiltered(0, [][]float64{{2, 5, math.Inf(-1)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("dropped %d values, want 1", d)
	}
	if bad != 0 || seen != 3 {
		t.Fatalf("%d non-finite values reached the estimators, of %d checked (want 0 of 3)", bad, seen)
	}
	sum, gaps, err := a.SummarizeLenient(nil)
	if err != nil {
		t.Fatal(err)
	}
	if gaps != 1 {
		t.Fatalf("gaps = %d, want 1 (metric 2 only ever saw non-finite values)", gaps)
	}
	if sum[0][1] != 1.5 {
		t.Fatalf("metric 0 median %v, want 1.5", sum[0][1])
	}
}

func TestObserveBatchFilteredReportingFlags(t *testing.T) {
	bad, seen := 0, 0
	a, err := NewAggregator(2, func() quantile.Estimator { return &guardEstimator{bad: &bad, seen: &seen} })
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{
		{1, 2},                   // clean
		nil,                      // machine down
		{math.NaN(), math.NaN()}, // all blanked: effectively down
		{math.NaN(), 7},          // partial
	}
	reporting := make([]bool, len(rows))
	d, err := a.ObserveBatchFiltered(0, rows, reporting)
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Fatalf("dropped %d values, want 3", d)
	}
	want := []bool{true, false, false, true}
	if !reflect.DeepEqual(reporting, want) {
		t.Fatalf("reporting = %v, want %v", reporting, want)
	}
	if bad != 0 || seen != 3 {
		t.Fatalf("%d non-finite values reached the estimators, of %d checked (want 0 of 3)", bad, seen)
	}
}

func TestSummarizeLenientFallsBackToPrev(t *testing.T) {
	a, err := NewAggregator(2, func() quantile.Estimator { return quantile.NewExact() })
	if err != nil {
		t.Fatal(err)
	}
	// Only metric 0 observed anything this epoch.
	if _, err := a.ObserveBatchFiltered(0, [][]float64{{10, math.NaN()}}, nil); err != nil {
		t.Fatal(err)
	}
	prev := [][3]float64{{1, 2, 3}, {4, 5, 6}}
	sum, gaps, err := a.SummarizeLenient(prev)
	if err != nil {
		t.Fatal(err)
	}
	if gaps != 1 {
		t.Fatalf("gaps = %d, want 1", gaps)
	}
	if sum[1] != prev[1] {
		t.Fatalf("metric 1 summary %v, want carried-forward %v", sum[1], prev[1])
	}
	if sum[0] != [3]float64{10, 10, 10} {
		t.Fatalf("metric 0 summary %v, want all-10", sum[0])
	}

	// With no previous summary the gap falls back to zeros.
	sum, gaps, err = a.SummarizeLenient(nil)
	if err != nil {
		t.Fatal(err)
	}
	if gaps != 2 || sum[0] != [3]float64{} || sum[1] != [3]float64{} {
		t.Fatalf("empty-epoch summary %v (gaps %d), want zeros with 2 gaps", sum, gaps)
	}
}

func TestSummarizeParallelMatchesSerial(t *testing.T) {
	build := func() *Aggregator {
		a, err := NewAggregator(8, func() quantile.Estimator { return quantile.NewExact() })
		if err != nil {
			t.Fatal(err)
		}
		for range 4 {
			rows := [][]float64{
				{1, 2, 3, 4, math.NaN(), 6, 7, 8},
				nil,
				{8, 7, 6, 5, math.NaN(), 3, 2, 1},
			}
			if _, err := a.ObserveBatchFiltered(4, rows, nil); err != nil {
				t.Fatal(err)
			}
		}
		return a
	}
	prev := make([][3]float64, 8)
	for m := range prev {
		prev[m] = [3]float64{-1, -2, -3}
	}
	serial, gapsS, err := build().SummarizeLenient(prev)
	if err != nil {
		t.Fatal(err)
	}
	par := make([][3]float64, 8)
	gapsP, err := build().SummarizeInto(4, par, prev)
	if err != nil {
		t.Fatal(err)
	}
	if gapsS != 1 || gapsP != gapsS {
		t.Fatalf("gaps serial=%d parallel=%d, want 1", gapsS, gapsP)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel lenient summary differs from serial:\n%v\n%v", par, serial)
	}
	if serial[4] != [3]float64{-1, -2, -3} {
		t.Fatalf("gap metric summary %v, want carried-forward prev", serial[4])
	}
}

// perCellReference is the filter ObserveBatchFiltered must be
// indistinguishable from, written the obvious way: rows in machine order, a
// scalar finiteness check per cell, and the surviving values handed to each
// estimator one at a time.
func perCellReference(ests []quantile.Estimator, rows [][]float64, reporting []bool) (dropped int, err error) {
	for i, row := range rows {
		if row == nil {
			reporting[i] = false
			continue
		}
		if len(row) != len(ests) {
			return dropped, fmt.Errorf("metrics: row has %d values, want %d", len(row), len(ests))
		}
		d := 0
		for m, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				d++
				continue
			}
			ests[m].Insert(v)
		}
		dropped += d
		reporting[i] = d < len(row)
	}
	return dropped, nil
}

// dirtyRows generates n rows of width nm with every kind of hole a collector
// delivers: machines that are down (nil), rows blanked whole, scattered
// NaN/±Inf cells, and — when badAt >= 0 — one row of the wrong width.
func dirtyRows(rng *rand.Rand, n, nm, badAt int) [][]float64 {
	holes := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	rows := make([][]float64, n)
	for i := range rows {
		switch k := rng.Intn(20); {
		case i == badAt:
			rows[i] = make([]float64, []int{0, nm - 1, nm + 1}[rng.Intn(3)])
		case k == 0:
			// nil: the machine is down
		case k == 1:
			rows[i] = make([]float64, nm)
			for m := range rows[i] {
				rows[i][m] = holes[rng.Intn(len(holes))]
			}
		default:
			rows[i] = make([]float64, nm)
			for m := range rows[i] {
				rows[i][m] = 100 + rng.NormFloat64()*10
				if rng.Intn(30) == 0 {
					rows[i][m] = holes[rng.Intn(len(holes))]
				}
			}
		}
	}
	return rows
}

// TestObserveBatchFilteredMatchesPerCell: the column-at-a-time filter leaves
// the same drop count, the same reporting flags, the same error and the same
// estimator state — value for value in machine order — as the per-cell
// reference, at every batch length around the strip size, and with a
// wrong-width row anywhere in the batch.
func TestObserveBatchFilteredMatchesPerCell(t *testing.T) {
	const nm = 7
	rng := rand.New(rand.NewSource(41))
	newEst := func() quantile.Estimator { return quantile.NewExact() }
	for _, n := range []int{0, 1, 255, 256, 257, 1000} {
		for _, withBad := range []bool{false, true} {
			badAt := -1
			if withBad {
				if n == 0 {
					continue
				}
				badAt = rng.Intn(n)
			}
			rows := dirtyRows(rng, n, nm, badAt)
			label := fmt.Sprintf("n%d/bad%d", n, badAt)
			got, err := NewAggregator(nm, newEst)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := NewAggregator(nm, newEst)
			// Two epochs through the same aggregators: the second runs on
			// warm scratch and reset estimators.
			for epoch := 0; epoch < 2; epoch++ {
				got.Reset()
				want.Reset()
				gotRep, wantRep := make([]bool, n), make([]bool, n)
				for i := range gotRep {
					gotRep[i], wantRep[i] = true, true // rows past an error stay untouched
				}
				gotDropped, gotErr := got.ObserveBatchFiltered(0, rows, gotRep)
				wantDropped, wantErr := perCellReference(want.ests, rows, wantRep)
				if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
				}
				if withBad != (gotErr != nil) {
					t.Fatalf("%s: error %v with a wrong-width row: %v", label, gotErr, withBad)
				}
				if gotDropped != wantDropped {
					t.Fatalf("%s: dropped %d, reference %d", label, gotDropped, wantDropped)
				}
				if !reflect.DeepEqual(gotRep, wantRep) {
					t.Fatalf("%s: reporting flags diverge from the reference", label)
				}
				for m := 0; m < nm; m++ {
					gv := got.ests[m].(*quantile.Exact).RawValues()
					wv := want.ests[m].(*quantile.Exact).RawValues()
					if !slices.Equal(gv, wv) {
						t.Fatalf("%s: metric %d holds %d values, reference %d, or another order", label, m, len(gv), len(wv))
					}
				}
				// A nil reporting slice changes nothing else.
				got.Reset()
				if d, _ := got.ObserveBatchFiltered(0, rows, nil); d != wantDropped {
					t.Fatalf("%s: dropped %d without reporting flags, want %d", label, d, wantDropped)
				}
			}
		}
	}
}

// TestScanBatchFilteredMatchesObserve: the estimator-free scan a fleet shard
// runs accounts a dirty batch exactly as ObserveBatchFiltered does — same
// drop count, same reporting flags, same error — at every batch length around
// the strip size and with a wrong-width row at each position, and lays the
// reporting rows out metric-major, bit for bit.
func TestScanBatchFilteredMatchesObserve(t *testing.T) {
	const nm = 7
	rng := rand.New(rand.NewSource(47))
	agg, err := NewAggregator(nm, func() quantile.Estimator { return quantile.NewExact() })
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 255, 256, 257, 600} {
		rows := dirtyRows(rng, n, nm, -1)
		for badAt := -1; badAt < n; badAt++ {
			batch := rows
			if badAt >= 0 {
				batch = slices.Clone(rows)
				batch[badAt] = make([]float64, []int{0, nm - 1, nm + 1}[badAt%3])
			}
			gotRep, wantRep := make([]bool, n), make([]bool, n)
			for i := range gotRep {
				gotRep[i], wantRep[i] = true, true // rows past an error stay untouched
			}
			agg.Reset()
			wantDropped, wantErr := agg.ObserveBatchFiltered(0, batch, wantRep)
			cols, gotDropped, gotErr := ScanBatchFiltered(batch, nm, gotRep, make([]float64, nm*n))
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("n%d/bad%d: error %v, ObserveBatchFiltered %v", n, badAt, gotErr, wantErr)
			}
			if (badAt >= 0) != (gotErr != nil) {
				t.Fatalf("n%d/bad%d: error %v", n, badAt, gotErr)
			}
			if gotDropped != wantDropped {
				t.Fatalf("n%d/bad%d: dropped %d, ObserveBatchFiltered %d", n, badAt, gotDropped, wantDropped)
			}
			if !slices.Equal(gotRep, wantRep) {
				t.Fatalf("n%d/bad%d: reporting flags diverge from ObserveBatchFiltered's", n, badAt)
			}
			if gotErr != nil {
				continue
			}
			var want []float64
			for m := 0; m < nm; m++ {
				for i, row := range batch {
					if gotRep[i] {
						want = append(want, row[m])
					}
				}
			}
			if len(cols) != len(want) {
				t.Fatalf("n%d: %d column cells, want %d", n, len(cols), len(want))
			}
			for i := range want {
				if math.Float64bits(cols[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n%d: column cell %d is %#x, want %#x", n, i, math.Float64bits(cols[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
	if _, _, err := ScanBatchFiltered(make([][]float64, 3), nm, make([]bool, 2), make([]float64, 3*nm)); err == nil {
		t.Fatal("want an error for a reporting slice of another length")
	}
	if _, _, err := ScanBatchFiltered(make([][]float64, 3), nm, make([]bool, 3), make([]float64, 3*nm-1)); err == nil {
		t.Fatal("want an error for a column slab too short")
	}
}

// TestObserveBatchFilteredNoAllocs: once the estimators have grown to the
// epoch's size, filtering an epoch allocates nothing.
func TestObserveBatchFilteredNoAllocs(t *testing.T) {
	const nm = 7
	rows := dirtyRows(rand.New(rand.NewSource(43)), 1000, nm, -1)
	a, err := NewAggregator(nm, func() quantile.Estimator { return quantile.NewExact() })
	if err != nil {
		t.Fatal(err)
	}
	reporting := make([]bool, len(rows))
	epoch := func() {
		a.Reset()
		if _, err := a.ObserveBatchFiltered(0, rows, reporting); err != nil {
			t.Fatal(err)
		}
	}
	epoch()
	if allocs := testing.AllocsPerRun(20, epoch); allocs != 0 {
		t.Errorf("%v allocs per filtered epoch after warm-up, want 0", allocs)
	}
}
