package quantile

import (
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

// foreignEst is an Estimator that is not an *Exact.
type foreignEst struct{ Exact }

func TestExactMergeTypeMismatch(t *testing.T) {
	e := NewExact()
	if err := e.Merge(&foreignEst{}); err == nil {
		t.Fatal("want type-mismatch error merging a foreign estimator into Exact")
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
