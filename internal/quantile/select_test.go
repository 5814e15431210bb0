package quantile

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortedOracle is the reference the selection kernel is held to: sort
// everything, then index. Values without a NaN sort by floatToOrdered (float
// order, -0 below +0); with one, by sort.Float64s, like the fallback, and
// zeroSignFree reports that the order of -0 against +0 is then unspecified.
func sortedOracle(vs []float64) (sorted []float64, zeroSignFree bool) {
	s := append([]float64(nil), vs...)
	for _, v := range s {
		if v != v {
			sort.Float64s(s)
			return s, true
		}
	}
	sort.Slice(s, func(i, j int) bool { return floatToOrdered(s[i]) < floatToOrdered(s[j]) })
	return s, false
}

// oracleQuery is the linear-interpolation quantile of an ascending slice.
func oracleQuery(sorted []float64, q float64) float64 {
	r := q * float64(len(sorted)-1)
	lo, hi := int(math.Floor(r)), int(math.Ceil(r))
	if lo == hi {
		return sorted[lo]
	}
	frac := r - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// lentScratch is the selection scratch checkAgainstOracle lends every
// estimator it checks, as an aggregator's worker lends one to its columns.
var lentScratch Scratch

// checkAgainstOracle queries e every way the package offers and requires
// the oracle's bits: Query before Summarize, Summarize, SummarizeWith,
// Query after.
func checkAgainstOracle(t *testing.T, name string, e *Exact, vs []float64, rng *rand.Rand) {
	t.Helper()
	sorted, zeroSignFree := sortedOracle(vs)
	differ := func(got, want float64) bool {
		if zeroSignFree && got == 0 && want == 0 {
			return false
		}
		return math.Float64bits(got) != math.Float64bits(want)
	}
	query := func(when string, q float64) {
		t.Helper()
		got, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: %s Query(%v): %v", name, when, q, err)
		}
		if want := oracleQuery(sorted, q); differ(got, want) {
			t.Fatalf("%s: %s Query(%v) = %v (%#x), sort says %v (%#x)", name, when, q,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	qs := []float64{0, 1, 0.5, rng.Float64(), rng.Float64()}
	for _, q := range qs {
		query("before", q)
	}
	got, err := Summarize(e)
	if err != nil {
		t.Fatalf("%s: Summarize: %v", name, err)
	}
	for i, q := range TrackedQuantiles {
		if want := oracleQuery(sorted, q); differ(got[i], want) {
			t.Fatalf("%s: Summarize[%v] = %v (%#x), sort says %v (%#x)", name, q,
				got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
	// A lent scratch, sized and left dirty by every column checked before
	// this one, gives the same bits as the estimator's own.
	lent, err := SummarizeWith(e, &lentScratch)
	if err != nil {
		t.Fatalf("%s: SummarizeWith: %v", name, err)
	}
	for i := range lent {
		if math.Float64bits(lent[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: SummarizeWith[%v] = %v with a lent scratch, %v with its own", name, TrackedQuantiles[i], lent[i], got[i])
		}
	}
	for _, q := range append(qs, TrackedQuantiles...) {
		query("after", q)
	}
	if e.Count() != len(vs) {
		t.Fatalf("%s: count %d after queries, want %d", name, e.Count(), len(vs))
	}
}

// selectShapes generates one column of n values per shape the kernel's
// passes treat differently: how many high bits the keys share, how full the
// wanted buckets are, and which extremes of the key space appear.
var selectShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"clustered-normal", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return 100 + rng.NormFloat64()*10 })
	}},
	{"few-distinct", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return float64(rng.Intn(5)) * 0.1 })
	}},
	{"lognormal-40-decades", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return math.Pow(10, rng.Float64()*40-20) })
	}},
	{"signed-lognormal", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 {
			v := math.Pow(10, rng.Float64()*40-20)
			if rng.Intn(2) == 0 {
				return -v
			}
			return v
		})
	}},
	{"subnormals", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 {
			v := math.Float64frombits(uint64(rng.Int63n(1 << 52)))
			if rng.Intn(3) == 0 {
				return -v
			}
			return v
		})
	}},
	{"max-float", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 {
			return []float64{math.MaxFloat64, -math.MaxFloat64, rng.NormFloat64()}[rng.Intn(3)]
		})
	}},
	{"infinities", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 {
			return []float64{math.Inf(1), math.Inf(-1), rng.NormFloat64(), 7}[rng.Intn(4)]
		})
	}},
	{"mixed-zeros", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 {
			return []float64{0, math.Copysign(0, -1), rng.NormFloat64()}[rng.Intn(3)]
		})
	}},
	{"all-equal", func(rng *rand.Rand, n int) []float64 {
		v := rng.NormFloat64()
		return fill(n, func(int) float64 { return v })
	}},
	{"one-outlier", func(rng *rand.Rand, n int) []float64 {
		vs := fill(n, func(int) float64 { return 3.5 })
		vs[rng.Intn(n)] = -1e300
		return vs
	}},
	{"adjacent-keys", func(rng *rand.Rand, n int) []float64 {
		// More than selectSmall keys that differ only in their low byte:
		// the recursion's last level, where every bucket is one value.
		return fill(n, func(int) float64 { return math.Float64frombits(math.Float64bits(1.0) + uint64(rng.Intn(200))) })
	}},
	{"sorted", func(_ *rand.Rand, n int) []float64 {
		return fill(n, func(i int) float64 { return float64(i) * 0.5 })
	}},
	{"nan-fallback", func(rng *rand.Rand, n int) []float64 {
		vs := fill(n, func(int) float64 { return rng.NormFloat64() })
		vs[rng.Intn(n)] = math.NaN()
		return vs
	}},
}

func fill(n int, gen func(i int) float64) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = gen(i)
	}
	return vs
}

// TestSummarizeMatchesSort holds the selection kernel to a naive
// sort-then-index reference, bit for bit, over every shape and over sizes
// on both sides of each threshold the kernel and its predecessor had.
func TestSummarizeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sizes := []int{1, 2, 3, selectSmall - 1, selectSmall, selectSmall + 1, 100, 255, 256, 257, 1000, 2000, 5000}
	for i := 0; i < 12; i++ {
		sizes = append(sizes, 1+rng.Intn(5000))
	}
	for _, shape := range selectShapes {
		for _, n := range sizes {
			name := fmt.Sprintf("%s/n%d", shape.name, n)
			vs := shape.gen(rng, n)
			e := NewExact()
			e.InsertBatch(vs)
			checkAgainstOracle(t, name, e, vs, rng)

			// The estimator stays usable after a query: InsertBatch and
			// Insert extend the same multiset, and Reset empties it.
			more := shape.gen(rng, 1+rng.Intn(300))
			e.InsertBatch(more)
			all := append(append([]float64(nil), vs...), more...)
			checkAgainstOracle(t, name+"/+batch", e, all, rng)
			e.Insert(42)
			all = append(all, 42)
			checkAgainstOracle(t, name+"/+insert", e, all, rng)

			// The zero value is an empty estimator.
			var zero Exact
			zero.InsertBatch(all)
			checkAgainstOracle(t, name+"/zero", &zero, all, rng)
			e.Reset()
			if _, err := Summarize(e); err != ErrNoData {
				t.Fatalf("%s: Summarize after Reset: %v, want ErrNoData", name, err)
			}
			e.InsertBatch(more)
			checkAgainstOracle(t, name+"/reused", e, more, rng)
		}
	}
}

// TestQueryLeavesInsertionOrder: selection reads the observations without
// reordering them, so RawValues stays the insertion order whether or not a
// query ran in between.
func TestQueryLeavesInsertionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vs := fill(1000, func(int) float64 { return rng.NormFloat64() })
	e := NewExact()
	e.InsertBatch(vs)
	if _, err := Summarize(e); err != nil {
		t.Fatal(err)
	}
	for i, v := range e.RawValues() {
		if v != vs[i] {
			t.Fatalf("value %d moved: %v, inserted %v", i, v, vs[i])
		}
	}
}

// TestQueryDescendingQuantiles: selection wants its ranks ascending; asked
// for quantiles in another order (TrackedQuantiles is a variable), a query
// sorts instead and answers the same.
func TestQueryDescendingQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vs := fill(1000, func(int) float64 { return rng.NormFloat64() })
	e := NewExact()
	e.InsertBatch(vs)
	sorted, _ := sortedOracle(vs)
	qs := []float64{0.95, 0.5, 0.25}
	var got [3]float64
	if err := e.QueryInto(qs, got[:]); err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if want := oracleQuery(sorted, q); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Errorf("q=%v: %v, sort says %v", q, got[i], want)
		}
	}
}

// TestQueryRejectsNaN: NaN is outside [0,1] (it used to index the values with
// int(NaN)).
func TestQueryRejectsNaN(t *testing.T) {
	est := NewExact()
	est.InsertBatch([]float64{1, 2, 3})
	for _, q := range []float64{math.NaN(), -0.1, 1.1, math.Inf(1)} {
		if v, err := est.Query(q); err == nil {
			t.Errorf("Query(%v) = %v, want an out-of-range error", q, v)
		}
	}
	if _, err := est.Query(0.5); err != nil {
		t.Errorf("Query(0.5) after rejected queries: %v", err)
	}
}

// TestSummarizeNoAllocs: once a first query has sized the estimator's key
// scratch, summarizing allocates nothing.
func TestSummarizeNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vs := fill(2000, func(int) float64 { return 100 + rng.NormFloat64()*10 })
	e := NewExact()
	epoch := func() {
		e.Reset()
		e.InsertBatch(vs)
		if _, err := Summarize(e); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Query(0.99); err != nil {
			t.Fatal(err)
		}
	}
	epoch()
	if a := testing.AllocsPerRun(20, epoch); a != 0 {
		t.Errorf("%v allocs per reused-estimator epoch, want 0", a)
	}
}

// FuzzSummarizeMatchesSort feeds the kernel arbitrary bit patterns: the
// input is reinterpreted as float64s, eight bytes each.
func FuzzSummarizeMatchesSort(f *testing.F) {
	rng := rand.New(rand.NewSource(37))
	for _, shape := range selectShapes {
		var seed []byte
		for _, v := range shape.gen(rng, 70) {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vs := make([]float64, len(data)/8)
		if len(vs) == 0 {
			return
		}
		for i := range vs {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		e := NewExact()
		e.InsertBatch(vs)
		checkAgainstOracle(t, "fuzz", e, vs, rand.New(rand.NewSource(int64(len(data)))))
	})
}

// BenchmarkSummarizeExact is the per-metric cost of an epoch's summary: one
// reused estimator, one clustered column of n machines in, three quantiles
// out.
func BenchmarkSummarizeExact(b *testing.B) {
	for _, n := range []int{100, 1000, 2000, 20000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			vs := fill(n, func(int) float64 { return 100 + rng.NormFloat64()*10 })
			e := NewExact()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Reset()
				e.InsertBatch(vs)
				if _, err := Summarize(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
