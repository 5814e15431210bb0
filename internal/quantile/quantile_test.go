package quantile

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
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

func TestNewGKValidation(t *testing.T) {
	if _, err := NewGK(0); err == nil {
		t.Fatal("eps=0 should error")
	}
	if _, err := NewGK(1); err == nil {
		t.Fatal("eps=1 should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGK(2) should panic")
		}
	}()
	MustGK(2)
}

func TestGKEmptyAndRange(t *testing.T) {
	s := MustGK(0.01)
	if _, err := s.Query(0.5); err != ErrNoData {
		t.Fatalf("err = %v", err)
	}
	s.Insert(1)
	if _, err := s.Query(-0.1); err == nil {
		t.Fatal("want range error")
	}
}

// rankError returns |estimated rank - target rank| for value v at quantile q
// within the sorted reference data.
func rankError(sorted []float64, v float64, q float64) float64 {
	n := len(sorted)
	target := math.Ceil(q * float64(n))
	if target < 1 {
		target = 1
	}
	// v's feasible rank range in sorted data:
	lo := sort.SearchFloat64s(sorted, v)                              // # strictly less
	hi := sort.SearchFloat64s(sorted, math.Nextafter(v, math.Inf(1))) // # <= v
	rlo, rhi := float64(lo+1), float64(hi)
	if rhi < rlo {
		rhi = rlo
	}
	switch {
	case target < rlo:
		return rlo - target
	case target > rhi:
		return target - rhi
	default:
		return 0
	}
}

func TestGKErrorBoundUniform(t *testing.T) {
	testGKErrorBound(t, func(rng *rand.Rand) float64 { return rng.Float64() })
}

func TestGKErrorBoundNormal(t *testing.T) {
	testGKErrorBound(t, func(rng *rand.Rand) float64 { return rng.NormFloat64() })
}

func TestGKErrorBoundHeavyTail(t *testing.T) {
	testGKErrorBound(t, func(rng *rand.Rand) float64 { return math.Exp(rng.NormFloat64() * 2) })
}

func TestGKErrorBoundSortedInput(t *testing.T) {
	var i int
	testGKErrorBound(t, func(*rand.Rand) float64 { i++; return float64(i) })
}

func testGKErrorBound(t *testing.T, gen func(*rand.Rand) float64) {
	t.Helper()
	const (
		eps = 0.02
		n   = 20000
	)
	rng := rand.New(rand.NewSource(11))
	s := MustGK(eps)
	data := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := gen(rng)
		s.Insert(v)
		data = append(data, v)
	}
	sort.Float64s(data)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.95, 0.99} {
		v, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if re := rankError(data, v, q); re > eps*float64(n)+1 {
			t.Errorf("q=%v: rank error %v exceeds eps*n=%v", q, re, eps*float64(n))
		}
	}
}

func TestGKMemorySublinear(t *testing.T) {
	s := MustGK(0.01)
	rng := rand.New(rand.NewSource(3))
	const n = 50000
	for i := 0; i < n; i++ {
		s.Insert(rng.Float64())
	}
	if s.Count() != n {
		t.Fatalf("Count = %d", s.Count())
	}
	// The sketch must be far smaller than the stream; for eps=0.01 the
	// bound is O(100 * log(0.01 n)) ≈ hundreds of tuples.
	if s.TupleCount() > n/10 {
		t.Fatalf("TupleCount = %d, not sublinear vs n=%d", s.TupleCount(), n)
	}
	if s.Epsilon() != 0.01 {
		t.Fatalf("Epsilon = %v", s.Epsilon())
	}
	s.Reset()
	if s.Count() != 0 || s.TupleCount() != 0 {
		t.Fatal("Reset did not clear")
	}
}

// Property: GK answers are always within the observed min/max.
func TestGKBoundedProperty(t *testing.T) {
	f := func(raw []float64, qSeed uint8) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		s := MustGK(0.05)
		mn, mx := vals[0], vals[0]
		for _, v := range vals {
			s.Insert(v)
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		q := float64(qSeed) / 255
		got, err := s.Query(q)
		return err == nil && got >= mn && got <= mx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Cross-implementation agreement: on a moderate stream, Exact and GK should
// agree to within GK's error budget.
func TestEstimatorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	exact := NewExact()
	gk := MustGK(0.01)
	for i := 0; i < 30000; i++ {
		v := rng.NormFloat64()*10 + 50
		exact.Insert(v)
		gk.Insert(v)
	}
	for _, q := range TrackedQuantiles {
		ev, _ := exact.Query(q)
		gv, _ := gk.Query(q)
		if math.Abs(ev-gv) > 1.0 {
			t.Errorf("q=%v: exact %v vs gk %v", q, ev, gv)
		}
	}
}
