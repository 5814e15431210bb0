package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dcfp/internal/metrics"
)

// explainThresholds builds a threshold table over n metrics where values
// below 10 are cold and above 90 hot, so fingerprint states are easy to
// construct.
func explainThresholds(t *testing.T, n int) *metrics.Thresholds {
	t.Helper()
	track, err := metrics.NewQuantileTrack(n)
	if err != nil {
		t.Fatal(err)
	}
	// 200 epochs of quantile rows spread uniformly over [10, 90].
	for e := 0; e < 200; e++ {
		row := make([][3]float64, n)
		v := 10 + 80*float64(e)/199
		for m := range row {
			row[m] = [3]float64{v, v, v}
		}
		if err := track.AppendEpoch(row); err != nil {
			t.Fatal(err)
		}
	}
	th, err := metrics.ComputeThresholds(track, func(metrics.Epoch) bool { return true }, 199, metrics.DefaultThresholdConfig())
	if err != nil {
		t.Fatal(err)
	}
	return th
}

func TestExplainDistanceBreakdown(t *testing.T) {
	const n = 4
	th := explainThresholds(t, n)
	f, err := NewFingerprinter(th, []int{0, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	a := []float64{1, 0.5, 0, -1, 0, 0.25, 1, 1, -0.5}
	b := []float64{0, 0.5, -1, -1, 1, 0.25, -1, 0, -0.5}

	exp, err := f.ExplainDistance(a, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantDist, err := Distance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exp.Distance-wantDist) > 1e-12 {
		t.Fatalf("explanation distance %v != Distance %v", exp.Distance, wantDist)
	}
	sum := exp.Residual
	for _, c := range exp.Top {
		sum += c.Contribution
	}
	if math.Abs(sum-exp.SquaredDistance) > 1e-9 {
		t.Fatalf("top+residual = %v, squared distance %v", sum, exp.SquaredDistance)
	}
	if math.Abs(exp.SquaredDistance-wantDist*wantDist) > 1e-9 {
		t.Fatalf("squared %v vs distance² %v", exp.SquaredDistance, wantDist*wantDist)
	}

	// Top must be the k largest terms, descending, with signed deltas.
	if len(exp.Top) != 3 {
		t.Fatalf("top has %d terms, want 3", len(exp.Top))
	}
	for i := 1; i < len(exp.Top); i++ {
		if exp.Top[i].Contribution > exp.Top[i-1].Contribution {
			t.Fatalf("top not descending: %+v", exp.Top)
		}
	}
	// Element 6 (metric 3, q25) has delta +2 — the largest term.
	lead := exp.Top[0]
	if lead.Metric != 3 || lead.Quantile != 0 || lead.Delta != 2 || lead.Contribution != 4 {
		t.Fatalf("leading contribution = %+v, want metric 3 q0 delta +2", lead)
	}
	// Element 2 (metric 0, q95) has delta +1: ongoing hotter than stored.
	found := false
	for _, c := range exp.Top {
		if c.Metric == 0 && c.Quantile == 2 {
			found = true
			if c.Delta != 1 || c.Ongoing != 0 || c.Stored != -1 {
				t.Fatalf("metric 0 q95 term = %+v", c)
			}
		}
	}
	if !found {
		t.Fatalf("metric 0 q95 (delta +1) missing from top 3: %+v", exp.Top)
	}
}

func TestExplainDistanceFullBreakdown(t *testing.T) {
	th := explainThresholds(t, 2)
	f, err := NewFingerprinter(th, []int{0, 1}) // 6 elements
	if err != nil {
		t.Fatal(err)
	}
	a := []float64{1, 0, 0, 0.5, -1, 0}
	b := []float64{0, 0, 1, 0.5, -1, -1}
	exp, err := f.ExplainDistance(a, b, 0) // keep everything
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Top) != 6 || exp.Residual != 0 {
		t.Fatalf("full breakdown: %d terms, residual %v", len(exp.Top), exp.Residual)
	}
	sum := 0.0
	for _, c := range exp.Top {
		sum += c.Contribution
	}
	if math.Abs(sum-exp.SquaredDistance) > 1e-12 {
		t.Fatalf("full sum %v != squared %v", sum, exp.SquaredDistance)
	}
	if _, err := f.ExplainDistance(a[:3], b, 5); err == nil {
		t.Fatal("length mismatch not rejected")
	}
}

// TestExplainStored explains an ongoing crisis against a stored one the way
// identification does: the candidate fingerprint is read from the stored
// crisis's window of the track.
func TestExplainStored(t *testing.T) {
	const n = 3
	th := explainThresholds(t, n)
	// Crisis detected at 10 and closed at 11: its window is epochs 8..11.
	tr := trackOf(t, n, 20, func(e, m, qi int) float64 {
		if e < 8 || e > 11 {
			return 50
		}
		return []float64{100, 5, 50}[m]
	})
	f, err := NewFingerprinter(th, AllMetrics(n))
	if err != nil {
		t.Fatal(err)
	}
	ongoing := make([]float64, f.Size()) // all-normal ongoing crisis
	var memo FingerprintMemo
	fp, _, err := f.StoredFingerprint(&memo, tr, 10, DefaultSummaryRange(), 11)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := f.ExplainDistance(ongoing, fp, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Stored crisis is hot on metric 0 (all +1) and cold on metric 1: the
	// squared distance is 6, and the explanation must agree with the
	// distance between the fingerprints.
	want, err := Distance(ongoing, fp)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exp.Distance-want) > 1e-12 {
		t.Fatalf("stored explanation distance %v, want %v", exp.Distance, want)
	}
	if math.Abs(exp.SquaredDistance-6) > 1e-9 {
		t.Fatalf("squared distance %v, want 6", exp.SquaredDistance)
	}
	for _, c := range exp.Top {
		if c.Metric == 1 && c.Delta != 1 {
			// ongoing (0) minus stored (-1) = +1: ongoing ran hotter
			// than the cold stored state.
			t.Fatalf("cold stored metric delta = %v, want +1: %+v", c.Delta, c)
		}
	}
}

// oracleExplainDistance is ExplainDistance as it was before the running
// top-k: every term built, stable-sorted by contribution, the prefix copied.
func oracleExplainDistance(f *Fingerprinter, a, b []float64, topK int) CandidateExplanation {
	terms := make([]Contribution, len(a))
	ss := 0.0
	for i := range a {
		d := a[i] - b[i]
		c := d * d
		ss += c
		terms[i] = Contribution{
			Metric:       f.relevant[i/metrics.NumQuantiles],
			Quantile:     i % metrics.NumQuantiles,
			Ongoing:      a[i],
			Stored:       b[i],
			Delta:        d,
			Contribution: c,
		}
	}
	sort.SliceStable(terms, func(i, j int) bool { return terms[i].Contribution > terms[j].Contribution })
	if topK < 1 || topK > len(terms) {
		topK = len(terms)
	}
	kept := 0.0
	for _, t := range terms[:topK] {
		kept += t.Contribution
	}
	return CandidateExplanation{
		Distance:        math.Sqrt(ss),
		SquaredDistance: ss,
		Top:             append([]Contribution(nil), terms[:topK]...),
		Residual:        ss - kept,
	}
}

// sameBits compares two explanations field by field, floats by their bits.
func sameBits(got, want CandidateExplanation) error {
	bits := math.Float64bits
	if bits(got.Distance) != bits(want.Distance) || bits(got.SquaredDistance) != bits(want.SquaredDistance) ||
		bits(got.Residual) != bits(want.Residual) {
		return fmt.Errorf("distance/squared/residual %v/%v/%v, oracle %v/%v/%v", got.Distance, got.SquaredDistance,
			got.Residual, want.Distance, want.SquaredDistance, want.Residual)
	}
	if len(got.Top) != len(want.Top) {
		return fmt.Errorf("%d top terms, oracle %d", len(got.Top), len(want.Top))
	}
	for i, w := range want.Top {
		g := got.Top[i]
		if g.Metric != w.Metric || g.Quantile != w.Quantile || bits(g.Ongoing) != bits(w.Ongoing) ||
			bits(g.Stored) != bits(w.Stored) || bits(g.Delta) != bits(w.Delta) || bits(g.Contribution) != bits(w.Contribution) {
			return fmt.Errorf("top[%d] = %+v, oracle %+v", i, g, w)
		}
	}
	return nil
}

// TestExplainDistanceMatchesSort holds ExplainDistance to the sort it
// replaced, bit for bit, over fingerprints whose states are averages of
// {−1, 0, 1} — so most contributions tie — at every topK regime, NaN
// elements included.
func TestExplainDistanceMatchesSort(t *testing.T) {
	const nm = 30
	th := explainThresholds(t, nm)
	f, err := NewFingerprinter(th, AllMetrics(nm))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	state := func() float64 {
		k := 1 + rng.Intn(4)
		s := 0.0
		for j := 0; j < k; j++ {
			s += float64(rng.Intn(3) - 1)
		}
		return s / float64(k)
	}
	n := f.Size()
	for ci := 0; ci < 400; ci++ {
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = state(), state()
		}
		if ci%50 == 0 {
			a[rng.Intn(n)] = math.NaN()
		}
		for _, k := range []int{-1, 0, 1, 2, 3, 5, 10, 17, n - 1, n, n + 1} {
			got, err := f.ExplainDistance(a, b, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBits(got, oracleExplainDistance(f, a, b, k)); err != nil {
				t.Fatalf("case %d topK %d: %v", ci, k, err)
			}
		}
	}
}
