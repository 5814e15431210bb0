package quantile

import (
	"math"
	"sort"
	"testing"
)

func TestExactBasics(t *testing.T) {
	e := NewExact()
	if _, err := e.Query(0.5); err != ErrNoData {
		t.Fatalf("empty Query err = %v, want ErrNoData", err)
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		e.Insert(v)
	}
	if e.Count() != 5 {
		t.Fatalf("Count = %d", e.Count())
	}
	med, err := e.Query(0.5)
	if err != nil || med != 3 {
		t.Fatalf("median = %v, %v", med, err)
	}
	lo, _ := e.Query(0)
	hi, _ := e.Query(1)
	if lo != 1 || hi != 5 {
		t.Fatalf("min/max = %v/%v", lo, hi)
	}
	if _, err := e.Query(1.5); err == nil {
		t.Fatal("want range error")
	}
	e.Reset()
	if e.Count() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestExactInsertAfterQuery(t *testing.T) {
	e := NewExact()
	e.Insert(2)
	e.Insert(1)
	if v, _ := e.Query(0.5); v != 1.5 {
		t.Fatalf("median = %v", v)
	}
	e.Insert(0) // must re-sort
	if v, _ := e.Query(0); v != 0 {
		t.Fatalf("min after late insert = %v", v)
	}
}

func TestExactValuesSorted(t *testing.T) {
	e := NewExact()
	for _, v := range []float64{3, 1, 2} {
		e.Insert(v)
	}
	vs := e.Values()
	if !sort.Float64sAreSorted(vs) {
		t.Fatalf("Values not sorted: %v", vs)
	}
}

func TestSummarizeTrackedQuantiles(t *testing.T) {
	e := NewExact()
	for i := 1; i <= 100; i++ {
		e.Insert(float64(i))
	}
	s, err := Summarize(e)
	if err != nil {
		t.Fatal(err)
	}
	// 25th/50th/95th of 1..100 under linear interpolation.
	if math.Abs(s[0]-25.75) > 1e-9 || math.Abs(s[1]-50.5) > 1e-9 || math.Abs(s[2]-95.05) > 1e-9 {
		t.Fatalf("Summarize = %v", s)
	}
	if _, err := Summarize(NewExact()); err == nil {
		t.Fatal("Summarize on empty estimator should error")
	}
}
