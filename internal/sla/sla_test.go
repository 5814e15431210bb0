package sla

import (
	"math/rand"
	"testing"
)

func cfg() Config {
	return Config{
		KPIs: []KPI{
			{Name: "fe_latency", Metric: 0, Threshold: 100},
			{Name: "proc_latency", Metric: 1, Threshold: 200},
		},
		CrisisFraction: 0.10,
	}
}

func TestConfigValidate(t *testing.T) {
	c := cfg()
	if err := c.Validate(2); err != nil {
		t.Fatal(err)
	}
	if err := (Config{}).Validate(2); err == nil {
		t.Fatal("want error on no KPIs")
	}
	bad := cfg()
	bad.CrisisFraction = 0
	if err := bad.Validate(2); err == nil {
		t.Fatal("want error on zero fraction")
	}
	bad = cfg()
	bad.CrisisFraction = 1.5
	if err := bad.Validate(2); err == nil {
		t.Fatal("want error on fraction > 1")
	}
	bad = cfg()
	bad.KPIs[1].Metric = 7
	if err := bad.Validate(2); err == nil {
		t.Fatal("want error on out-of-catalog metric")
	}
}

// evaluate is EvaluateMasked with every machine reporting.
func evaluate(c Config, values [][]float64) (EpochStatus, []bool, error) {
	reporting := make([]bool, len(values))
	for i := range reporting {
		reporting[i] = true
	}
	viol := make([]bool, len(values))
	st, err := c.EvaluateMasked(values, viol, reporting)
	return st, viol, err
}

func TestMachineViolates(t *testing.T) {
	c := cfg()
	_, viol, err := evaluate(c, [][]float64{{50, 150}, {150, 50}, {100, 200}})
	if err != nil {
		t.Fatal(err)
	}
	if viol[0] {
		t.Fatal("compliant machine flagged")
	}
	if !viol[1] {
		t.Fatal("violating machine missed")
	}
	if viol[2] {
		t.Fatal("threshold is inclusive; at-threshold must comply")
	}
}

func TestEvaluateCrisisRule(t *testing.T) {
	c := cfg()
	// 20 machines; exactly 2 violating = 10% -> crisis (>= fraction).
	vals := make([][]float64, 20)
	for i := range vals {
		vals[i] = []float64{50, 50}
	}
	vals[3] = []float64{500, 50}
	vals[7] = []float64{50, 500}
	st, _, err := evaluate(c, vals)
	if err != nil {
		t.Fatal(err)
	}
	if st.Machines != 20 || st.ViolatingAny != 2 {
		t.Fatalf("status = %+v", st)
	}
	if st.ViolatingPerKPI[0] != 1 || st.ViolatingPerKPI[1] != 1 {
		t.Fatalf("per-KPI = %v", st.ViolatingPerKPI)
	}
	if !st.InCrisis {
		t.Fatal("10%% violating should trigger crisis")
	}
	// One violator: below threshold.
	vals[7] = []float64{50, 50}
	st, _, err = evaluate(c, vals)
	if err != nil {
		t.Fatal(err)
	}
	if st.InCrisis {
		t.Fatal("5%% violating should not trigger crisis")
	}
}

func TestEvaluateCountsMachineOnce(t *testing.T) {
	c := cfg()
	vals := [][]float64{{500, 500}, {50, 50}}
	st, _, err := evaluate(c, vals)
	if err != nil {
		t.Fatal(err)
	}
	if st.ViolatingAny != 1 {
		t.Fatalf("ViolatingAny = %d; machine violating both KPIs must count once", st.ViolatingAny)
	}
	if st.ViolatingPerKPI[0] != 1 || st.ViolatingPerKPI[1] != 1 {
		t.Fatalf("per-KPI = %v", st.ViolatingPerKPI)
	}
}

func TestEvaluateErrors(t *testing.T) {
	c := cfg()
	if _, _, err := evaluate(c, [][]float64{{1}}); err == nil {
		t.Fatal("want error on short row")
	}
	if _, err := c.EvaluateMasked([][]float64{{1, 2}}, nil, nil); err == nil {
		t.Fatal("want error on missing reporting mask")
	}
}

func TestEpisodesBasic(t *testing.T) {
	in := []bool{false, true, true, false, false, true, false}
	eps := Episodes(in, 0, 1)
	if len(eps) != 2 {
		t.Fatalf("episodes = %v", eps)
	}
	if eps[0].Start != 1 || eps[0].End != 2 || eps[1].Start != 5 || eps[1].End != 5 {
		t.Fatalf("episodes = %v", eps)
	}
	if eps[0].Len() != 2 || !eps[0].Contains(2) || eps[0].Contains(3) {
		t.Fatal("episode accessors wrong")
	}
}

func TestEpisodesMergeGap(t *testing.T) {
	in := []bool{true, true, false, true, true}
	if got := Episodes(in, 0, 1); len(got) != 2 {
		t.Fatalf("no-merge episodes = %v", got)
	}
	got := Episodes(in, 1, 1)
	if len(got) != 1 || got[0].Start != 0 || got[0].End != 4 {
		t.Fatalf("merged episodes = %v", got)
	}
}

func TestEpisodesMinLen(t *testing.T) {
	in := []bool{true, false, true, true, true}
	got := Episodes(in, 0, 2)
	if len(got) != 1 || got[0].Start != 2 {
		t.Fatalf("minLen episodes = %v", got)
	}
	// Defensive defaults for nonsense arguments.
	if got := Episodes(in, -5, 0); len(got) != 2 {
		t.Fatalf("defaulted episodes = %v", got)
	}
}

func TestEpisodesTrailingOpen(t *testing.T) {
	in := []bool{false, true, true}
	got := Episodes(in, 0, 1)
	if len(got) != 1 || got[0].End != 2 {
		t.Fatalf("open-ended episode = %v", got)
	}
}

func TestEpisodesEmpty(t *testing.T) {
	if got := Episodes(nil, 0, 1); got != nil {
		t.Fatalf("Episodes(nil) = %v", got)
	}
	if got := Episodes([]bool{false, false}, 0, 1); len(got) != 0 {
		t.Fatalf("Episodes(all normal) = %v", got)
	}
}

// Property: merged episodes cover every crisis epoch, never overlap, and
// respect the merge-gap/min-length rules.
func TestEpisodesCoverageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 20 + rng.Intn(200)
		in := make([]bool, n)
		for i := range in {
			in[i] = rng.Float64() < 0.15
		}
		gap := rng.Intn(3)
		minLen := 1 + rng.Intn(3)
		eps := Episodes(in, gap, minLen)
		for i, ep := range eps {
			if ep.Len() < minLen {
				t.Fatalf("episode %v shorter than minLen %d", ep, minLen)
			}
			if ep.Start < 0 || int(ep.End) >= n || ep.End < ep.Start {
				t.Fatalf("episode %v out of range", ep)
			}
			if !in[ep.Start] || !in[ep.End] {
				t.Fatalf("episode %v does not start/end on crisis epochs", ep)
			}
			if i > 0 {
				// Non-overlap and separation beyond the merge gap.
				sep := int(ep.Start-eps[i-1].End) - 1
				if sep <= gap {
					t.Fatalf("episodes %v and %v separated by %d <= gap %d", eps[i-1], ep, sep, gap)
				}
			}
		}
		// Every long-enough raw run must be inside some episode.
		raw := Episodes(in, 0, 1)
		for _, r := range raw {
			if r.Len() < minLen {
				continue
			}
			covered := false
			for _, ep := range eps {
				if r.Start >= ep.Start && r.End <= ep.End {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("run %v (len %d >= %d) not covered by %v", r, r.Len(), minLen, eps)
			}
		}
	}
}
