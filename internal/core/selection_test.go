package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// crisisSamplesWithSignal builds samples where the given metric columns
// separate violating from normal machines and the rest are noise.
func crisisSamplesWithSignal(rng *rand.Rand, n, d int, signal []int) CrisisSamples {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if i%2 == 0 {
			y[i] = 1
			for _, j := range signal {
				row[j] += 4
			}
		}
		x[i] = row
	}
	return CrisisSamples{X: x, Y: y}
}

func TestPerCrisisMetricsFindsSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := crisisSamplesWithSignal(rng, 400, 30, []int{3, 17})
	top, err := PerCrisisMetrics(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]bool{}
	for _, m := range top {
		found[m] = true
	}
	if !found[3] || !found[17] {
		t.Fatalf("top = %v, want to contain 3 and 17", top)
	}
}

// TestPerCrisisMetricsLeavesInputUntouched: selection standardizes a buffer
// in place, and PerCrisisMetrics must hand it a copy — experiment and the
// benchmark's replay reuse their samples. The in-place entry point on a
// buffer of the same samples returns the same metrics.
func TestPerCrisisMetricsLeavesInputUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	s := crisisSamplesWithSignal(rng, 300, 21, []int{4, 9})
	before := fmt.Sprint(s.X, s.Y)
	top, err := PerCrisisMetrics(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(s.X, s.Y) != before {
		t.Fatal("PerCrisisMetrics modified its input")
	}
	again, err := PerCrisisMetrics(s, 5)
	if err != nil || fmt.Sprint(again) != fmt.Sprint(top) {
		t.Fatalf("second call on the same samples: %v, %v; first returned %v", again, err, top)
	}
	buf, err := s.Buffer()
	if err != nil {
		t.Fatal(err)
	}
	inPlace, st, err := PerCrisisSelection(buf, 5)
	if err != nil || fmt.Sprint(inPlace) != fmt.Sprint(top) {
		t.Fatalf("PerCrisisSelection = %v, %v; PerCrisisMetrics returned %v", inPlace, err, top)
	}
	if buf.Len() != 300 || st.Positives != 150 || st.Steps < 1 || st.Iters < st.Steps {
		t.Fatalf("path stats %+v", st)
	}
}

func TestPerCrisisMetricsValidation(t *testing.T) {
	if _, err := PerCrisisMetrics(CrisisSamples{}, 5); err == nil {
		t.Fatal("want empty-samples error")
	}
	if _, err := PerCrisisMetrics(CrisisSamples{X: [][]float64{{1}}, Y: []int{0, 1}}, 5); err == nil {
		t.Fatal("want length-mismatch error")
	}
	// Reachable from the public dcfp.SelectRelevantMetrics: a ragged row used
	// to panic inside standardization instead of failing the crisis.
	if _, err := PerCrisisMetrics(CrisisSamples{X: [][]float64{{1, 2}, {3}, {0, 1}}, Y: []int{0, 1, 0}}, 1); err == nil {
		t.Fatal("want ragged-rows error")
	}
}

func TestSelectRelevantMetricsFrequency(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Three crises: metrics 1,2 appear in all, 5 in one, 9 in another.
	pool := []CrisisSamples{
		crisisSamplesWithSignal(rng, 300, 20, []int{1, 2, 5}),
		crisisSamplesWithSignal(rng, 300, 20, []int{1, 2, 9}),
		crisisSamplesWithSignal(rng, 300, 20, []int{1, 2}),
	}
	rel, err := SelectRelevantMetrics(pool, SelectionConfig{PerCrisisTopK: 4, NumRelevant: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 2 || rel[0] != 1 || rel[1] != 2 {
		t.Fatalf("relevant = %v, want [1 2]", rel)
	}
	// With room for four, the occasional metrics join.
	rel, err = SelectRelevantMetrics(pool, SelectionConfig{PerCrisisTopK: 4, NumRelevant: 4})
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]bool{}
	for _, m := range rel {
		found[m] = true
	}
	if !found[1] || !found[2] {
		t.Fatalf("relevant = %v", rel)
	}
}

func TestSelectRelevantMetricsSortedOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := []CrisisSamples{crisisSamplesWithSignal(rng, 300, 15, []int{9, 2, 11})}
	rel, err := SelectRelevantMetrics(pool, SelectionConfig{PerCrisisTopK: 3, NumRelevant: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rel); i++ {
		if rel[i] <= rel[i-1] {
			t.Fatalf("relevant not strictly sorted: %v", rel)
		}
	}
}

func TestSelectRelevantMetricsSkipsBadCrises(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	good := crisisSamplesWithSignal(rng, 300, 10, []int{4})
	bad := CrisisSamples{X: [][]float64{{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}}, Y: []int{1}} // single class
	rel, err := SelectRelevantMetrics([]CrisisSamples{bad, good}, SelectionConfig{PerCrisisTopK: 2, NumRelevant: 2})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range rel {
		if m == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("relevant = %v, want to contain 4", rel)
	}
}

func TestSelectRelevantMetricsErrors(t *testing.T) {
	if _, err := SelectRelevantMetrics(nil, DefaultSelectionConfig()); err == nil {
		t.Fatal("want empty-pool error")
	}
	if _, err := SelectRelevantMetrics([]CrisisSamples{{}}, SelectionConfig{}); err == nil {
		t.Fatal("want config error")
	}
	bad := CrisisSamples{X: [][]float64{{1}}, Y: []int{1}}
	if _, err := SelectRelevantMetrics([]CrisisSamples{bad}, DefaultSelectionConfig()); err == nil {
		t.Fatal("want all-failed error")
	}
}

func TestDefaultSelectionConfig(t *testing.T) {
	cfg := DefaultSelectionConfig()
	if cfg.PerCrisisTopK != 10 || cfg.NumRelevant != 30 {
		t.Fatalf("config = %+v", cfg)
	}
}

// TestMostFrequentOrder pins §3.4's ranking: frequency descending, then rank
// sum ascending, then column, truncated to n and left in that order.
func TestMostFrequentOrder(t *testing.T) {
	rankings := [][]int{
		{7, 3, 9},
		{3, 7, 4},
		{5, 3},
	}
	// 3: freq 3 (rank sum 1+0+1 = 2); 7: freq 2 (0+1 = 1); 9, 4 and 5 once,
	// with rank sums 2, 2 and 0.
	want := []int{3, 7, 5, 4, 9}
	if got := MostFrequent(rankings, 10); !slices.Equal(got, want) {
		t.Fatalf("MostFrequent = %v, want %v", got, want)
	}
	if got := MostFrequent(rankings, 2); !slices.Equal(got, want[:2]) {
		t.Fatalf("MostFrequent(n=2) = %v, want %v", got, want[:2])
	}
	if got := MostFrequent(nil, 3); len(got) != 0 {
		t.Fatalf("MostFrequent(nil) = %v", got)
	}
}
