package core

import (
	"fmt"
	"math"
	"sort"

	"dcfp/internal/metrics"
)

// Distance explanations: §4's identification decision is a nearest-neighbor
// test under the L2 distance between crisis fingerprints, so the decision
// decomposes exactly into per-element terms — one per (relevant metric,
// quantile) — with (a[i]-b[i])² summing to the squared distance. Exposing
// the top terms, signed, lets an operator reconstruct *why* a candidate was
// near or far: "hot CPU_USER q50 contributed 0.41" means the ongoing
// crisis's median CPU state sat hotter than the stored candidate's by
// √0.41 fingerprint units.

// Contribution is one (metric, quantile) term of a squared L2 distance.
type Contribution struct {
	// Metric is the catalog column; Quantile indexes the tracked quantile
	// (0 = 25th, 1 = 50th, 2 = 95th).
	Metric   int `json:"metric"`
	Quantile int `json:"quantile"`
	// Ongoing and Stored are the averaged discretized states being
	// compared, each in [-1, +1] (-1 cold, +1 hot).
	Ongoing float64 `json:"ongoing"`
	Stored  float64 `json:"stored"`
	// Delta = Ongoing - Stored carries the sign: positive means the
	// ongoing crisis ran hotter on this quantile than the candidate.
	Delta float64 `json:"delta"`
	// Contribution = Delta², this term's share of the squared distance.
	Contribution float64 `json:"contribution"`
}

// CandidateExplanation is the audit record of one candidate comparison: the
// distance the identification decision actually used, decomposed so that
// the sum of the top contributions plus the residual reproduces the squared
// distance exactly.
type CandidateExplanation struct {
	// CrisisID and Label identify the stored candidate crisis.
	CrisisID string `json:"crisis_id"`
	Label    string `json:"label"`
	// Distance is the L2 distance; SquaredDistance its square, computed
	// with the same element order as Distance so the two never disagree.
	Distance        float64 `json:"distance"`
	SquaredDistance float64 `json:"squared_distance"`
	// Top holds the k largest contributions, descending; Residual is the
	// squared distance carried by the remaining elements, so
	// sum(Top[i].Contribution) + Residual == SquaredDistance.
	Top      []Contribution `json:"top_contributions"`
	Residual float64        `json:"residual"`
}

// ExplainDistance compares the ongoing crisis fingerprint a against a
// stored candidate fingerprint b (both produced by this fingerprinter, so
// element i maps to relevant metric i/3, quantile i%3) and returns the
// distance with its top-k per-metric-quantile breakdown. topK < 1 keeps
// every term. Largest terms come first, ties in element order.
func (f *Fingerprinter) ExplainDistance(a, b []float64, topK int) (CandidateExplanation, error) {
	if len(a) != f.Size() || len(b) != f.Size() {
		return CandidateExplanation{}, fmt.Errorf("core: explain lengths %d/%d, want %d", len(a), len(b), f.Size())
	}
	if topK < 1 || topK >= len(a) {
		return f.explainAll(a, b, topK), nil
	}
	// A running top-k in the order a stable descending sort yields: a term
	// enters only when strictly larger than the current k-th, and lands after
	// the kept terms it ties with, which all come earlier in element order.
	top := make([]Contribution, 0, topK)
	ss := 0.0
	for i := range a {
		d := a[i] - b[i]
		c := d * d
		ss += c
		if len(top) == topK && !(c > top[topK-1].Contribution) {
			continue
		}
		p := len(top)
		for p > 0 && top[p-1].Contribution < c {
			p--
		}
		if len(top) < topK {
			top = append(top, Contribution{})
		}
		copy(top[p+1:], top[p:len(top)-1])
		top[p] = f.contribution(a, b, i)
	}
	if math.IsNaN(ss) {
		// NaN has no place in the order above; keep the sort's answer.
		return f.explainAll(a, b, topK), nil
	}
	return explanation(ss, top), nil
}

// explainAll is ExplainDistance by sorting every term.
func (f *Fingerprinter) explainAll(a, b []float64, topK int) CandidateExplanation {
	terms := make([]Contribution, len(a))
	ss := 0.0
	for i := range a {
		terms[i] = f.contribution(a, b, i)
		ss += terms[i].Contribution
	}
	sort.SliceStable(terms, func(i, j int) bool { return terms[i].Contribution > terms[j].Contribution })
	if topK < 1 || topK > len(terms) {
		topK = len(terms)
	}
	return explanation(ss, append([]Contribution(nil), terms[:topK]...))
}

// contribution is element i's term of the squared distance between a and b.
func (f *Fingerprinter) contribution(a, b []float64, i int) Contribution {
	d := a[i] - b[i]
	return Contribution{
		Metric:       f.relevant[i/metrics.NumQuantiles],
		Quantile:     i % metrics.NumQuantiles,
		Ongoing:      a[i],
		Stored:       b[i],
		Delta:        d,
		Contribution: d * d,
	}
}

// explanation completes a breakdown from the squared distance ss and its
// kept terms, summed in their listed order.
func explanation(ss float64, top []Contribution) CandidateExplanation {
	kept := 0.0
	for _, t := range top {
		kept += t.Contribution
	}
	return CandidateExplanation{
		Distance:        math.Sqrt(ss),
		SquaredDistance: ss,
		Top:             top,
		Residual:        ss - kept,
	}
}
