package quantile

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// batchStreams are the value shapes the batch-ingestion property tests run
// over: clustered (the metric-column steady state), uniform, sorted,
// reversed, with duplicates, and tiny.
func batchStreams(rng *rand.Rand) map[string][]float64 {
	clustered := make([]float64, 3000)
	for i := range clustered {
		clustered[i] = 100 + rng.NormFloat64()*10
	}
	uniform := make([]float64, 2500)
	for i := range uniform {
		uniform[i] = rng.Float64() * 1e6
	}
	sorted := make([]float64, 2000)
	for i := range sorted {
		sorted[i] = float64(i) * 0.5
	}
	reversed := make([]float64, 2000)
	for i := range reversed {
		reversed[i] = float64(len(reversed) - i)
	}
	dups := make([]float64, 1500)
	for i := range dups {
		dups[i] = float64(rng.Intn(7))
	}
	return map[string][]float64{
		"clustered": clustered,
		"uniform":   uniform,
		"sorted":    sorted,
		"reversed":  reversed,
		"dups":      dups,
		"single":    {42},
		"pair":      {2, 1},
	}
}

// chunk splits vs into batches of the given size (last one ragged).
func chunk(vs []float64, size int) [][]float64 {
	var out [][]float64
	for len(vs) > size {
		out = append(out, vs[:size])
		vs = vs[size:]
	}
	return append(out, vs)
}

// TestExactInsertBatchEquivalence: for the exact estimator, batch ingestion
// must be indistinguishable from per-value insertion — same quantiles to
// the bit, any chunking.
func TestExactInsertBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, vs := range batchStreams(rng) {
		for _, size := range []int{1, 3, 64, 256, 1 << 20} {
			ref := NewExact()
			for _, v := range vs {
				ref.Insert(v)
			}
			got := NewExact()
			for _, b := range chunk(vs, size) {
				got.InsertBatch(b)
			}
			if ref.Count() != got.Count() {
				t.Fatalf("%s/size%d: count %d vs %d", name, size, got.Count(), ref.Count())
			}
			for _, q := range TrackedQuantiles {
				rv, err1 := ref.Query(q)
				gv, err2 := got.Query(q)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s/size%d: query errs %v %v", name, size, err1, err2)
				}
				if math.Float64bits(rv) != math.Float64bits(gv) {
					t.Fatalf("%s/size%d q=%v: %v != %v", name, size, gv, q, rv)
				}
			}
			if !reflect.DeepEqual(ref.Values(), got.Values()) {
				t.Fatalf("%s/size%d: value multisets diverge", name, size)
			}
		}
	}
}
