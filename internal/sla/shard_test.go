package sla

import (
	"math/rand"
	"reflect"
	"testing"
)

func shardTestConfig() Config {
	return Config{
		KPIs: []KPI{
			{Name: "lat", Metric: 0, Threshold: 100},
			{Name: "q", Metric: 1, Threshold: 50},
		},
		CrisisFraction: 0.10,
	}
}

func TestEvaluateIntoFillsFlags(t *testing.T) {
	c := shardTestConfig()
	values := [][]float64{
		{50, 10},  // clean
		{150, 10}, // KPI 0
		{50, 60},  // KPI 1
		{150, 60}, // both, still one machine
	}
	st, viol, err := evaluate(c, values)
	if err != nil {
		t.Fatal(err)
	}
	wantFlags := []bool{false, true, true, true}
	if !reflect.DeepEqual(viol, wantFlags) {
		t.Fatalf("viol = %v, want %v", viol, wantFlags)
	}
	if st.ViolatingAny != 3 || st.ViolatingPerKPI[0] != 2 || st.ViolatingPerKPI[1] != 2 {
		t.Fatalf("status = %+v", st)
	}
	// The flags must match the unmasked reference row by row.
	refViol := make([]bool, len(values))
	evaluateInto(c, values, refViol)
	if !reflect.DeepEqual(viol, refViol) {
		t.Fatalf("viol = %v, reference %v", viol, refViol)
	}
}

func TestEvaluateIntoLengthMismatch(t *testing.T) {
	c := shardTestConfig()
	if _, err := c.EvaluateMasked([][]float64{{1, 2}}, make([]bool, 2), []bool{true}); err == nil {
		t.Fatal("want viol-length error")
	}
}

// TestMergeStatusesMatchesWholeEvaluate splits machine sets every which way
// and requires the merged partial statuses to equal one whole evaluation.
func TestMergeStatusesMatchesWholeEvaluate(t *testing.T) {
	c := shardTestConfig()
	rng := rand.New(rand.NewSource(9))
	values := make([][]float64, 97)
	for i := range values {
		values[i] = []float64{rng.Float64() * 200, rng.Float64() * 100}
	}
	want, _, err := evaluate(c, values)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 5, 8} {
		parts := make([]EpochStatus, shards)
		n := len(values)
		for w := 0; w < shards; w++ {
			lo, hi := w*n/shards, (w+1)*n/shards
			st, _, err := evaluate(c, values[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			parts[w] = st
		}
		got := c.MergeStatuses(parts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: merged %+v != whole %+v", shards, got, want)
		}
	}
}

// TestMergeStatusesCrisisRule checks the crisis rule is re-applied over the
// summed counts, not inherited from any partial.
func TestMergeStatusesCrisisRule(t *testing.T) {
	c := shardTestConfig()
	// Partial A: 1/2 violating (locally 50% >= 10% => in crisis).
	// Partial B: 0/48 violating. Combined: 1/50 = 2% => no crisis.
	a, _, err := evaluate(c, [][]float64{{150, 10}, {50, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if !a.InCrisis {
		t.Fatal("partial A should locally satisfy the crisis rule")
	}
	clean := make([][]float64, 48)
	for i := range clean {
		clean[i] = []float64{50, 10}
	}
	b, _, err := evaluate(c, clean)
	if err != nil {
		t.Fatal(err)
	}
	got := c.MergeStatuses([]EpochStatus{a, b})
	if got.InCrisis {
		t.Fatalf("merged status wrongly in crisis: %+v", got)
	}
	if got.Machines != 50 || got.ViolatingAny != 1 {
		t.Fatalf("merged counts: %+v", got)
	}
}
