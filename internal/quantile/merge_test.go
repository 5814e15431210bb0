package quantile

import (
	"math"
	"math/rand"
	"testing"
)

// TestExactMergeBitIdentical is the determinism guarantee sharded epoch
// aggregation rests on: merging exact shards yields byte-identical queries
// to single-stream insertion, for any split and any shard order.
func TestExactMergeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 100
	}
	serial := NewExact()
	for _, v := range vals {
		serial.Insert(v)
	}
	for _, shards := range []int{2, 3, 7} {
		parts := make([]*Exact, shards)
		for i := range parts {
			parts[i] = NewExact()
		}
		for i, v := range vals {
			parts[i%shards].Insert(v)
		}
		// Merge in reverse order to show shard order is irrelevant.
		merged := parts[shards-1]
		for i := shards - 2; i >= 0; i-- {
			if err := merged.Merge(parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		if merged.Count() != serial.Count() {
			t.Fatalf("shards=%d: Count = %d, want %d", shards, merged.Count(), serial.Count())
		}
		for _, q := range TrackedQuantiles {
			want, err := serial.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := merged.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("shards=%d q=%v: %v != %v (must be bit-identical)", shards, q, got, want)
			}
		}
	}
}

func TestExactMergeLeavesSourceIntact(t *testing.T) {
	a, b := NewExact(), NewExact()
	a.Insert(1)
	b.Insert(2)
	b.Insert(3)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 3 || b.Count() != 2 {
		t.Fatalf("counts after merge: a=%d b=%d", a.Count(), b.Count())
	}
}

func TestExactMergeTypeMismatch(t *testing.T) {
	e := NewExact()
	if err := e.Merge(MustGK(0.01)); err == nil {
		t.Fatal("want type-mismatch error merging GK into Exact")
	}
}

// TestSketchMergesApproximate checks the GK merge keeps quantile estimates
// within a loose tolerance of the exact answer.
func TestSketchMergesApproximate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 4000)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 50
	}
	exact := NewExact()
	a, b := MustGK(0.01), MustGK(0.01)
	for i, v := range vals {
		exact.Insert(v)
		if i%2 == 0 {
			a.Insert(v)
		} else {
			b.Insert(v)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != len(vals) {
		t.Fatalf("Count = %d, want %d", a.Count(), len(vals))
	}
	for _, q := range TrackedQuantiles {
		want, _ := exact.Query(q)
		got, err := a.Query(q)
		if err != nil {
			t.Fatalf("q=%v: %v", q, err)
		}
		// A rank-error sketch over a heavy-tailed stream: allow a generous
		// value tolerance (relative to the exact answer).
		if math.Abs(got-want) > 0.15*want+1 {
			t.Fatalf("q=%v: got %v, exact %v", q, got, want)
		}
	}
}

func TestMergeEmptySource(t *testing.T) {
	a, b := NewExact(), NewExact()
	a.Insert(42)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 1 {
		t.Fatalf("Count = %d after merging empty source", a.Count())
	}
}
