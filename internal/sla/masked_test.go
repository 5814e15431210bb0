package sla

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func maskedConfig() Config {
	return Config{
		KPIs: []KPI{
			{Name: "latency", Metric: 0, Threshold: 100},
			{Name: "queue", Metric: 1, Threshold: 50},
		},
		CrisisFraction: 0.10,
	}
}

// evaluateInto is the unmasked SLA evaluation, the reference EvaluateMasked
// must reproduce on fully reporting, finite rows: every machine counts, and
// viol[m] records whether row m breaks any KPI.
func evaluateInto(c Config, values [][]float64, viol []bool) EpochStatus {
	st := EpochStatus{
		ViolatingPerKPI: make([]int, len(c.KPIs)),
		Machines:        len(values),
	}
	for m, row := range values {
		any := false
		for i, k := range c.KPIs {
			if row[k.Metric] > k.Threshold {
				st.ViolatingPerKPI[i]++
				any = true
			}
		}
		if any {
			st.ViolatingAny++
		}
		viol[m] = any
	}
	st.InCrisis = float64(st.ViolatingAny) >= c.CrisisFraction*float64(st.Machines)
	return st
}

func TestEvaluateMaskedMatchesEvaluateIntoWhenAllReporting(t *testing.T) {
	cfg := maskedConfig()
	cases := [][][]float64{{
		{150, 10}, {90, 10}, {90, 60}, {90, 10}, {90, 10},
		{90, 10}, {90, 10}, {90, 10}, {90, 10}, {90, 10},
	}}
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 50; trial++ {
		values := make([][]float64, 1+rng.Intn(60))
		for i := range values {
			values[i] = []float64{rng.Float64() * 120, rng.Float64() * 60}
			if rng.Intn(8) == 0 {
				values[i][rng.Intn(2)] = []float64{100, 50}[rng.Intn(2)] // on a threshold
			}
		}
		cases = append(cases, values)
	}
	for i, values := range cases {
		reporting := make([]bool, len(values))
		for i := range reporting {
			reporting[i] = true
		}
		violA := make([]bool, len(values))
		violB := make([]bool, len(values))
		want := evaluateInto(cfg, values, violA)
		got, err := cfg.EvaluateMasked(values, violB, reporting)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: masked status %+v, unmasked %+v", i, got, want)
		}
		if !reflect.DeepEqual(violA, violB) {
			t.Fatalf("case %d: masked viol %v, unmasked %v", i, violB, violA)
		}
	}
}

func TestEvaluateMaskedExcludesNonReportingMachines(t *testing.T) {
	cfg := maskedConfig()
	// 2 reporting machines, 1 violating: 50% >= 10% -> crisis over the
	// reporting set; the 8 masked machines are out of the denominator.
	values := make([][]float64, 10)
	reporting := make([]bool, 10)
	values[0] = []float64{150, 10}
	values[1] = []float64{90, 10}
	reporting[0], reporting[1] = true, true
	for i := 2; i < 10; i++ {
		values[i] = nil // machine down: no row at all
	}
	viol := make([]bool, 10)
	st, err := cfg.EvaluateMasked(values, viol, reporting)
	if err != nil {
		t.Fatal(err)
	}
	if st.Machines != 2 {
		t.Fatalf("Machines = %d, want 2 (reporting only)", st.Machines)
	}
	if st.ViolatingAny != 1 || !st.InCrisis {
		t.Fatalf("status %+v, want 1 violator and InCrisis over the reporting set", st)
	}
	if !viol[0] || viol[1] {
		t.Fatalf("viol = %v, want [true false ...]", viol[:2])
	}
	for i := 2; i < 10; i++ {
		if viol[i] {
			t.Fatalf("masked machine %d marked violating", i)
		}
	}
}

func TestEvaluateMaskedNonFiniteNeverViolates(t *testing.T) {
	cfg := maskedConfig()
	values := [][]float64{
		{math.Inf(1), 10},  // corrupt +Inf latency: not an SLA breach
		{math.NaN(), 10},   // blanked latency: not a breach
		{90, math.Inf(-1)}, // corrupt -Inf queue: not a breach
		{90, 10},
	}
	reporting := []bool{true, true, true, true}
	st, err := cfg.EvaluateMasked(values, nil, reporting)
	if err != nil {
		t.Fatal(err)
	}
	if st.ViolatingAny != 0 || st.InCrisis {
		t.Fatalf("status %+v, want no violations from non-finite samples", st)
	}
	if st.Machines != 4 {
		t.Fatalf("Machines = %d, want 4", st.Machines)
	}
}

func TestEvaluateMaskedZeroReportingIsNotACrisis(t *testing.T) {
	cfg := maskedConfig()
	values := make([][]float64, 5)
	reporting := make([]bool, 5)
	st, err := cfg.EvaluateMasked(values, nil, reporting)
	if err != nil {
		t.Fatal(err)
	}
	if st.InCrisis {
		t.Fatal("zero reporting machines must not satisfy the crisis rule")
	}
	if st.Machines != 0 || st.ViolatingAny != 0 {
		t.Fatalf("status %+v, want empty", st)
	}
}

func TestMergeStatusesZeroMachinesIsNotACrisis(t *testing.T) {
	cfg := maskedConfig()
	st := cfg.MergeStatuses([]EpochStatus{
		{ViolatingPerKPI: []int{0, 0}},
		{ViolatingPerKPI: []int{0, 0}},
	})
	if st.InCrisis {
		t.Fatal("merging empty partials must not declare a crisis")
	}
}

func TestEvaluateMaskedLengthMismatch(t *testing.T) {
	cfg := maskedConfig()
	if _, err := cfg.EvaluateMasked(make([][]float64, 3), nil, make([]bool, 2)); err == nil {
		t.Fatal("want error for reporting length mismatch")
	}
	if _, err := cfg.EvaluateMasked(make([][]float64, 3), make([]bool, 2), make([]bool, 3)); err == nil {
		t.Fatal("want error for viol length mismatch")
	}
}
