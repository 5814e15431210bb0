package metrics

import (
	"math"
	"reflect"
	"testing"

	"dcfp/internal/quantile"
)

// guardEstimator wraps Exact and records any non-finite insert — the
// property the filtered ingestion paths must guarantee never happens.
type guardEstimator struct {
	quantile.Exact
	bad *int
}

func (g *guardEstimator) Insert(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		*g.bad++
	}
	g.Exact.Insert(v)
}

func (g *guardEstimator) InsertBatch(vs []float64) {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			*g.bad++
		}
	}
	g.Exact.InsertBatch(vs)
}

func (g *guardEstimator) Merge(src quantile.Estimator) error {
	o, ok := src.(*guardEstimator)
	if !ok {
		return g.Exact.Merge(src)
	}
	return g.Exact.Merge(&o.Exact)
}

func TestObserveFilteredDropsNonFinite(t *testing.T) {
	bad := 0
	a, err := NewAggregator(3, func() quantile.Estimator { return &guardEstimator{bad: &bad} })
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
	if bad != 0 {
		t.Fatalf("%d non-finite values reached the estimators", bad)
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
	bad := 0
	a, err := NewAggregator(2, func() quantile.Estimator { return &guardEstimator{bad: &bad} })
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
	if bad != 0 {
		t.Fatalf("%d non-finite values reached the estimators", bad)
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

func TestSummarizeLenientParallelMatchesSerial(t *testing.T) {
	build := func() *Aggregator {
		a, err := NewAggregator(8, func() quantile.Estimator { return quantile.NewExact() })
		if err != nil {
			t.Fatal(err)
		}
		a.EnsureShards(4)
		for w := 0; w < 4; w++ {
			rows := [][]float64{
				{1, 2, 3, 4, math.NaN(), 6, 7, 8},
				nil,
				{8, 7, 6, 5, math.NaN(), 3, 2, 1},
			}
			if _, err := a.ObserveBatchFiltered(w, rows, nil); err != nil {
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
	par, gapsP, err := build().SummarizeLenientParallel(4, prev)
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
