package core

import (
	"reflect"
	"testing"
)

func cacheTestStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	rows := [][]float64{
		{200, 50, 50, 50, 50, 50},
		{200, 50, 50, 50, 50, 50},
	}
	if err := s.Add("c1", "A", 100, rows); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("c2", "B", 200, rows); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFingerprintCacheHitsOnRepeat(t *testing.T) {
	s := cacheTestStore(t)
	th := fixedThresholds(2, 10, 100)
	f, err := NewFingerprinter(th, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	f.SetGeneration(1)
	first, err := s.Fingerprint(0, f)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := s.CacheStats(); h != 0 || m != 1 {
		t.Fatalf("after first call: hits=%d misses=%d", h, m)
	}
	second, err := s.Fingerprint(0, f)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := s.CacheStats(); h != 1 || m != 1 {
		t.Fatalf("after repeat call: hits=%d misses=%d", h, m)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached fingerprint differs: %v vs %v", first, second)
	}
	// A fresh fingerprinter with the same generation and relevant set must
	// also hit: the cache key is (generation, relevant-set), not identity.
	g, err := NewFingerprinter(th, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	g.SetGeneration(1)
	if _, err := s.Fingerprint(0, g); err != nil {
		t.Fatal(err)
	}
	if h, _ := s.CacheStats(); h != 2 {
		t.Fatalf("equivalent fingerprinter missed: hits=%d", h)
	}
}

func TestFingerprintCacheInvalidatedByGeneration(t *testing.T) {
	s := cacheTestStore(t)
	thOld := fixedThresholds(2, 10, 100)
	f, _ := NewFingerprinter(thOld, []int{0, 1})
	f.SetGeneration(1)
	old, err := s.Fingerprint(0, f)
	if err != nil {
		t.Fatal(err)
	}
	if old[0] != 1 {
		t.Fatalf("m0q0 under old thresholds = %v, want hot", old[0])
	}
	// New thresholds make 200 normal; a new generation must recompute, not
	// serve the stale cached value.
	thNew := fixedThresholds(2, 10, 1000)
	g, _ := NewFingerprinter(thNew, []int{0, 1})
	g.SetGeneration(2)
	fresh, err := s.Fingerprint(0, g)
	if err != nil {
		t.Fatal(err)
	}
	if fresh[0] != 0 {
		t.Fatalf("m0q0 under new thresholds = %v, want recomputed 0 (stale cache?)", fresh[0])
	}
	if h, m := s.CacheStats(); h != 0 || m != 2 {
		t.Fatalf("hits=%d misses=%d after generation bump", h, m)
	}
}

func TestFingerprintCacheInvalidatedByRelevantSet(t *testing.T) {
	s := cacheTestStore(t)
	th := fixedThresholds(2, 10, 100)
	f, _ := NewFingerprinter(th, []int{0, 1})
	f.SetGeneration(1)
	if _, err := s.Fingerprint(0, f); err != nil {
		t.Fatal(err)
	}
	// Same generation, different relevant set: must not alias the cached
	// two-metric fingerprint.
	g, _ := NewFingerprinter(th, []int{0})
	g.SetGeneration(1)
	fp, err := s.Fingerprint(0, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 3 {
		t.Fatalf("projected fingerprint has %d elements, want 3", len(fp))
	}
	if h, m := s.CacheStats(); h != 0 || m != 2 {
		t.Fatalf("hits=%d misses=%d after relevant-set change", h, m)
	}
}

func TestFingerprintUntaggedBypassesCache(t *testing.T) {
	s := cacheTestStore(t)
	th := fixedThresholds(2, 10, 100)
	f, _ := NewFingerprinter(th, []int{0, 1})
	if f.Generation() != 0 {
		t.Fatalf("fresh fingerprinter generation = %d", f.Generation())
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Fingerprint(0, f); err != nil {
			t.Fatal(err)
		}
	}
	if h, m := s.CacheStats(); h != 0 || m != 0 {
		t.Fatalf("untagged calls touched the cache: hits=%d misses=%d", h, m)
	}
}

func TestFingerprintCacheCoversAllCrises(t *testing.T) {
	s := cacheTestStore(t)
	th := fixedThresholds(2, 10, 100)
	f, _ := NewFingerprinter(th, []int{0, 1})
	f.SetGeneration(1)
	// Fingerprints walks every crisis; the second sweep must be all hits.
	if _, err := fingerprints(s, f); err != nil {
		t.Fatal(err)
	}
	if _, err := fingerprints(s, f); err != nil {
		t.Fatal(err)
	}
	if h, m := s.CacheStats(); h != 2 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", h, m)
	}
}
