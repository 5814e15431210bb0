package core

import (
	"reflect"
	"testing"

	"dcfp/internal/metrics"
)

// memoCrises is a two-metric track with two stored crises: crisis 0 is
// detected at 10 and closes at 11, before its window's last epoch, so its
// window is 8..11, all hot on metric 0; crisis 1 is detected at 30 and
// closes at 40, so its window is the full 28..34, hot on metric 0 for its
// first four epochs only.
func memoCrises(t *testing.T) (tr *metrics.QuantileTrack, start, closed []metrics.Epoch) {
	t.Helper()
	tr = trackOf(t, 2, 50, func(e, m, qi int) float64 {
		if m == 0 && ((e >= 8 && e <= 11) || (e >= 28 && e <= 31)) {
			return 200
		}
		return 50
	})
	return tr, []metrics.Epoch{10, 30}, []metrics.Epoch{11, 40}
}

func TestFingerprintCacheHitsOnRepeat(t *testing.T) {
	tr, start, closed := memoCrises(t)
	th := fixedThresholds(2, 10, 100)
	f, err := NewFingerprinter(th, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	f.SetGeneration(1)
	var memo FingerprintMemo
	first, hit, err := f.StoredFingerprint(&memo, tr, start[0], DefaultSummaryRange(), closed[0])
	if err != nil || hit {
		t.Fatalf("first call: hit %v, err %v", hit, err)
	}
	// The window stops at the closing epoch: epochs 12..14 are normal and
	// would dilute the hot state.
	if want := []float64{1, 1, 1, 0, 0, 0}; !reflect.DeepEqual(first, want) {
		t.Fatalf("fingerprint %v, want %v", first, want)
	}
	second, hit, err := f.StoredFingerprint(&memo, tr, start[0], DefaultSummaryRange(), closed[0])
	if err != nil || !hit {
		t.Fatalf("repeat call: hit %v, err %v", hit, err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("memoized fingerprint differs: %v vs %v", first, second)
	}
	// A fresh fingerprinter with the same generation and relevant set must
	// also hit: the key is (generation, relevant-set), not identity.
	g, err := NewFingerprinter(th, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	g.SetGeneration(1)
	if _, hit, err := g.StoredFingerprint(&memo, tr, start[0], DefaultSummaryRange(), closed[0]); err != nil || !hit {
		t.Fatalf("equivalent fingerprinter: hit %v, err %v", hit, err)
	}
}

func TestFingerprintCacheInvalidatedByGeneration(t *testing.T) {
	tr, start, closed := memoCrises(t)
	f, _ := NewFingerprinter(fixedThresholds(2, 10, 100), []int{0, 1})
	f.SetGeneration(1)
	var memo FingerprintMemo
	old, _, err := f.StoredFingerprint(&memo, tr, start[0], DefaultSummaryRange(), closed[0])
	if err != nil {
		t.Fatal(err)
	}
	if old[0] != 1 {
		t.Fatalf("m0q0 under old thresholds = %v, want hot", old[0])
	}
	// New thresholds make 200 normal; a new generation must recompute, not
	// serve the stale memoized value.
	g, _ := NewFingerprinter(fixedThresholds(2, 10, 1000), []int{0, 1})
	g.SetGeneration(2)
	fresh, hit, err := g.StoredFingerprint(&memo, tr, start[0], DefaultSummaryRange(), closed[0])
	if err != nil || hit {
		t.Fatalf("after generation bump: hit %v, err %v", hit, err)
	}
	if fresh[0] != 0 {
		t.Fatalf("m0q0 under new thresholds = %v, want recomputed 0 (stale memo?)", fresh[0])
	}
}

func TestFingerprintCacheInvalidatedByRelevantSet(t *testing.T) {
	tr, start, closed := memoCrises(t)
	th := fixedThresholds(2, 10, 100)
	f, _ := NewFingerprinter(th, []int{0, 1})
	f.SetGeneration(1)
	var memo FingerprintMemo
	if _, _, err := f.StoredFingerprint(&memo, tr, start[0], DefaultSummaryRange(), closed[0]); err != nil {
		t.Fatal(err)
	}
	// Same generation, different relevant set: must not alias the memoized
	// two-metric fingerprint.
	g, _ := NewFingerprinter(th, []int{0})
	g.SetGeneration(1)
	fp, hit, err := g.StoredFingerprint(&memo, tr, start[0], DefaultSummaryRange(), closed[0])
	if err != nil || hit {
		t.Fatalf("after relevant-set change: hit %v, err %v", hit, err)
	}
	if len(fp) != 3 {
		t.Fatalf("projected fingerprint has %d elements, want 3", len(fp))
	}
}

func TestFingerprintUntaggedBypassesCache(t *testing.T) {
	tr, start, closed := memoCrises(t)
	f, _ := NewFingerprinter(fixedThresholds(2, 10, 100), []int{0, 1})
	if f.Generation() != 0 {
		t.Fatalf("fresh fingerprinter generation = %d", f.Generation())
	}
	var memo FingerprintMemo
	for i := 0; i < 3; i++ {
		if _, hit, err := f.StoredFingerprint(&memo, tr, start[0], DefaultSummaryRange(), closed[0]); err != nil || hit {
			t.Fatalf("untagged call %d: hit %v, err %v", i, hit, err)
		}
	}
	if !reflect.DeepEqual(memo, FingerprintMemo{}) {
		t.Fatalf("untagged calls filled the memo: %+v", memo)
	}
}

// TestFingerprintCacheCoversAllCrises: each stored crisis memoizes its own
// fingerprint, so a second sweep over both is all hits and serves each
// crisis its own value, equal to its window's CrisisFingerprintUpTo.
func TestFingerprintCacheCoversAllCrises(t *testing.T) {
	tr, start, closed := memoCrises(t)
	f, _ := NewFingerprinter(fixedThresholds(2, 10, 100), []int{0, 1})
	f.SetGeneration(1)
	memos := make([]FingerprintMemo, len(start))
	sweep := func(wantHit bool) [][]float64 {
		t.Helper()
		out := make([][]float64, len(start))
		for i := range start {
			fp, hit, err := f.StoredFingerprint(&memos[i], tr, start[i], DefaultSummaryRange(), closed[i])
			if err != nil || hit != wantHit {
				t.Fatalf("crisis %d: hit %v, err %v; want hit %v", i, hit, err, wantHit)
			}
			out[i] = fp
		}
		return out
	}
	first := sweep(false)
	if again := sweep(true); !reflect.DeepEqual(first, again) {
		t.Fatalf("second sweep %v, first %v", again, first)
	}
	for i := range start {
		want, err := f.CrisisFingerprintUpTo(tr, start[i], DefaultSummaryRange(), closed[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first[i], want) {
			t.Fatalf("crisis %d: stored fingerprint %v, window fingerprint %v", i, first[i], want)
		}
	}
	if first[1][0] != 4.0/7 {
		t.Fatalf("crisis 1's m0q0 = %v, want 4/7 over its full window", first[1][0])
	}
}

// TestStoreUpdateModeRecomputes: §6.3's update mode — a stored crisis's
// fingerprint is recomputed from its window under the thresholds in force,
// not kept from the thresholds it was stored under.
func TestStoreUpdateModeRecomputes(t *testing.T) {
	tr := trackOf(t, 1, 10, func(e, m, qi int) float64 { return 150 })
	// 150 is hot under the first thresholds; the second make it normal.
	for _, c := range []struct {
		hi   float64
		want float64
	}{{100, 1}, {1000, 0}} {
		f, _ := NewFingerprinter(fixedThresholds(1, 10, c.hi), []int{0})
		var memo FingerprintMemo
		fp, _, err := f.StoredFingerprint(&memo, tr, 5, DefaultSummaryRange(), 7)
		if err != nil {
			t.Fatal(err)
		}
		if fp[0] != c.want {
			t.Fatalf("hot threshold %v: fp = %v, want recomputed %v", c.hi, fp, c.want)
		}
	}
}

// TestStoreFingerprintWidthMismatch: a fingerprinter over another catalog
// cannot read a stored window, nor can any read a window past the track's
// end; neither fills the memo.
func TestStoreFingerprintWidthMismatch(t *testing.T) {
	tr := trackOf(t, 2, 10, func(e, m, qi int) float64 { return 50 })
	wide, _ := NewFingerprinter(fixedThresholds(3, 10, 100), []int{0})
	wide.SetGeneration(1)
	var memo FingerprintMemo
	if _, _, err := wide.StoredFingerprint(&memo, tr, 5, DefaultSummaryRange(), 7); err == nil {
		t.Fatal("want width-mismatch error")
	}
	f, _ := NewFingerprinter(fixedThresholds(2, 10, 100), []int{0})
	f.SetGeneration(1)
	if _, _, err := f.StoredFingerprint(&memo, tr, 50, DefaultSummaryRange(), 52); err == nil {
		t.Fatal("want an error for a window past the track's end")
	}
	if !reflect.DeepEqual(memo, FingerprintMemo{}) {
		t.Fatalf("failed reads filled the memo: %+v", memo)
	}
}

func TestBytesPerCrisis(t *testing.T) {
	// Paper §6.3 counts 100 metrics × 3 quantiles × 7 epochs × 4 bytes =
	// 8400; with float64 we pay exactly double.
	got := BytesPerCrisis(100, DefaultSummaryRange())
	if got != 16800 {
		t.Fatalf("BytesPerCrisis = %d, want 16800", got)
	}
}
