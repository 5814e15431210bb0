package experiment

import (
	"math/rand"
	"testing"

	"dcfp/internal/core"
	"dcfp/internal/metrics"
)

// synthTrack builds a track of nm metrics over n epochs. Crisis windows
// push selected columns up or down; everything else is N(100, 5) noise.
type bump struct {
	start, end int
	cols       map[int]float64 // column -> multiplier
}

func synthTrack(t *testing.T, nm, n int, bumps []bump, seed int64) *metrics.QuantileTrack {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr, err := metrics.NewQuantileTrack(nm)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < n; e++ {
		row := make([][3]float64, nm)
		for m := 0; m < nm; m++ {
			for qi := 0; qi < metrics.NumQuantiles; qi++ {
				v := 100 + rng.NormFloat64()*5
				col := m*metrics.NumQuantiles + qi
				for _, b := range bumps {
					if e >= b.start && e <= b.end {
						if f, ok := b.cols[col]; ok {
							v *= f
						}
					}
				}
				row[m][qi] = v
			}
		}
		if err := tr.AppendEpoch(row); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func epochs(lo, hi int) []metrics.Epoch {
	var out []metrics.Epoch
	for e := lo; e <= hi; e++ {
		out = append(out, metrics.Epoch(e))
	}
	return out
}

func TestBuildModelValidation(t *testing.T) {
	tr := synthTrack(t, 3, 50, nil, 1)
	cols := DefaultSignatureConfig().ModelColumns
	if _, err := buildSignatureModel(nil, epochs(1, 2), epochs(3, 4), cols); err == nil {
		t.Fatal("want nil-track error")
	}
	if _, err := buildSignatureModel(tr, nil, epochs(3, 4), cols); err == nil {
		t.Fatal("want no-crisis-epochs error")
	}
	if _, err := buildSignatureModel(tr, epochs(1, 2), nil, cols); err == nil {
		t.Fatal("want no-normal-epochs error")
	}
	if _, err := buildSignatureModel(tr, epochs(1, 2), epochs(3, 4), 0); err == nil {
		t.Fatal("want config error")
	}
	if _, err := buildSignatureModel(tr, epochs(999, 1000), epochs(3, 4), cols); err == nil {
		t.Fatal("want epoch-range error")
	}
}

func TestModelSelectsCrisisColumns(t *testing.T) {
	// Crisis at epochs 30..40 triples columns 3 and 7.
	b := bump{start: 30, end: 40, cols: map[int]float64{3: 3, 7: 3}}
	tr := synthTrack(t, 5, 100, []bump{b}, 2)
	m, err := buildSignatureModel(tr, epochs(30, 40), epochs(0, 29), 4)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, c := range modelColumns(m) {
		got[c] = true
	}
	if !got[3] || !got[7] {
		t.Fatalf("model columns = %v, want 3 and 7", modelColumns(m))
	}
}

func TestEpochSignatureAlphabet(t *testing.T) {
	b := bump{start: 30, end: 40, cols: map[int]float64{3: 3}}
	tr := synthTrack(t, 5, 100, []bump{b}, 3)
	m, err := buildSignatureModel(tr, epochs(30, 40), epochs(0, 29), 2)
	if err != nil {
		t.Fatal(err)
	}
	row, _ := tr.EpochRow(35) // in crisis
	sig, err := m.epochSignature(row)
	if err != nil {
		t.Fatal(err)
	}
	inModel := map[int]bool{}
	for _, c := range modelColumns(m) {
		inModel[c] = true
	}
	for col, v := range sig {
		switch {
		case !inModel[col] && v != 0:
			t.Fatalf("col %d out of model has value %v", col, v)
		case inModel[col] && v != 1 && v != -1:
			t.Fatalf("col %d in model has value %v", col, v)
		}
	}
	if sig[3] != 1 {
		t.Fatalf("crisis column not attributed: %v", sig[3])
	}
	if _, err := m.epochSignature([]float64{1}); err == nil {
		t.Fatal("want width error")
	}
}

func TestCrisisSignatureAndDistance(t *testing.T) {
	// Two crises of the same pattern and one different.
	same1 := bump{start: 30, end: 38, cols: map[int]float64{3: 3, 7: 3}}
	same2 := bump{start: 60, end: 68, cols: map[int]float64{3: 3, 7: 3}}
	diff := bump{start: 90, end: 98, cols: map[int]float64{11: 3, 13: 0.2}}
	tr := synthTrack(t, 6, 130, []bump{same1, same2, diff}, 4)
	m, err := buildSignatureModel(tr, epochs(30, 38), epochs(5, 25), 4)
	if err != nil {
		t.Fatal(err)
	}
	r := core.DefaultSummaryRange()
	dSame, err := m.distance(tr, 30, 60, r, 38, 68)
	if err != nil {
		t.Fatal(err)
	}
	dDiff, err := m.distance(tr, 30, 90, r, 38, 98)
	if err != nil {
		t.Fatal(err)
	}
	if dSame >= dDiff {
		t.Fatalf("same-type distance %v >= different-type %v", dSame, dDiff)
	}
}

func TestCrisisSignatureWindowErrors(t *testing.T) {
	b := bump{start: 30, end: 40, cols: map[int]float64{3: 3}}
	tr := synthTrack(t, 5, 100, []bump{b}, 5)
	m, err := buildSignatureModel(tr, epochs(30, 40), epochs(0, 29), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.crisisSignature(tr, 5000, core.DefaultSummaryRange(), 5004); err == nil {
		t.Fatal("want out-of-range error")
	}
	// Truncated window works.
	sig, err := m.crisisSignature(tr, 30, core.DefaultSummaryRange(), 30)
	if err != nil || len(sig) != tr.NumMetrics()*metrics.NumQuantiles {
		t.Fatalf("truncated signature: %v, %v", len(sig), err)
	}
}

func TestDefaultSignatureConfig(t *testing.T) {
	cfg := DefaultSignatureConfig()
	if cfg.ModelColumns != 30 || cfg.NormalFactor != 4 {
		t.Fatalf("DefaultSignatureConfig = %+v", cfg)
	}
}

// modelColumns returns the metric-quantile columns in m's vocabulary.
func modelColumns(m *signatureModel) []int {
	out := make([]int, len(m.rules))
	for i, r := range m.rules {
		out[i] = r.col
	}
	return out
}
