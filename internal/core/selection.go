package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dcfp/internal/logreg"
)

// CrisisSamples is the machine-level training set surrounding one crisis:
// X[i] is the metric row of one machine at one epoch near the crisis, and
// Y[i] is 1 when that machine was violating its KPI SLAs (§3.4).
type CrisisSamples struct {
	X [][]float64
	Y []int
}

// SelectionConfig controls relevant-metric selection.
type SelectionConfig struct {
	// PerCrisisTopK is how many metrics feature selection keeps per
	// crisis (the paper uses 10).
	PerCrisisTopK int
	// NumRelevant is how many of the most frequently selected metrics
	// form the fingerprint (the paper uses 15 offline, 30 online).
	NumRelevant int
}

// DefaultSelectionConfig is the paper's online setting: top 10 per crisis,
// 30 most frequent overall.
func DefaultSelectionConfig() SelectionConfig {
	return SelectionConfig{PerCrisisTopK: 10, NumRelevant: 30}
}

// Significance cutoffs: the L1 path is walked until k features activate,
// and the weakest activations are noise rather than signal. A feature
// survives when its standardized coefficient is both a meaningful fraction
// of the crisis model's largest coefficient and large in absolute terms
// (|w| >= 0.2 shifts the violation log-odds by 0.2 per standard deviation
// of the metric — anything below that is indistinguishable from sampling
// noise at feature-selection sample sizes).
const (
	relativeCutoff = 0.05
	absoluteCutoff = 0.2
)

// SampleBuffer is the metric-major, block-per-epoch form of CrisisSamples
// that selection runs on; the monitor collects crisis samples straight into
// one.
type SampleBuffer = logreg.Samples

// Buffer copies the samples into a SampleBuffer, validating their shape.
func (s CrisisSamples) Buffer() (*SampleBuffer, error) {
	buf, err := logreg.NewSamples(s.X, s.Y)
	if err != nil {
		return nil, fmt.Errorf("core: malformed crisis samples: %w", err)
	}
	return buf, nil
}

// PerCrisisMetrics runs feature selection for a single crisis and returns
// up to k metric columns most predictive of per-machine SLA violation,
// keeping only features whose coefficient magnitude is a meaningful
// fraction of the strongest one. s is left untouched.
func PerCrisisMetrics(s CrisisSamples, k int) ([]int, error) {
	buf, err := s.Buffer()
	if err != nil {
		return nil, err
	}
	top, _, err := PerCrisisSelection(buf, k)
	return top, err
}

// PerCrisisSelection is PerCrisisMetrics on a buffer the caller gives up (it
// is standardized in place, so only one copy of the samples is ever live),
// also reporting the work the regularization path did.
func PerCrisisSelection(buf *SampleBuffer, k int) ([]int, logreg.PathStats, error) {
	top, model, st, err := buf.SelectTopK(k)
	if err != nil {
		return nil, st, fmt.Errorf("core: per-crisis feature selection: %w", err)
	}
	maxW := 0.0
	for _, j := range top {
		if w := math.Abs(model.Weights[j]); w > maxW {
			maxW = w
		}
	}
	out := top[:0]
	for _, j := range top {
		w := math.Abs(model.Weights[j])
		if w >= relativeCutoff*maxW && w >= absoluteCutoff {
			out = append(out, j)
		}
	}
	return out, st, nil
}

// SelectRelevantMetrics implements the two-step relevance pipeline of §3.4:
// run feature selection on the data surrounding each crisis in the pool,
// then keep the cfg.NumRelevant metrics most frequently selected across
// crises. Crises whose feature selection fails (e.g. a window with a single
// class) are skipped; at least one must succeed.
//
// Ties in frequency are broken by the order metrics first appeared in the
// per-crisis rankings (earlier = more relevant), then by column index, so
// the result is deterministic.
func SelectRelevantMetrics(pool []CrisisSamples, cfg SelectionConfig) ([]int, error) {
	if cfg.PerCrisisTopK <= 0 || cfg.NumRelevant <= 0 {
		return nil, fmt.Errorf("core: invalid selection config %+v", cfg)
	}
	if len(pool) == 0 {
		return nil, errors.New("core: empty crisis pool")
	}
	var rankings [][]int
	for _, s := range pool {
		top, err := PerCrisisMetrics(s, cfg.PerCrisisTopK)
		if err != nil {
			continue
		}
		rankings = append(rankings, top)
	}
	if len(rankings) == 0 {
		return nil, errors.New("core: feature selection failed for every crisis in the pool")
	}
	cols := MostFrequent(rankings, cfg.NumRelevant)
	sort.Ints(cols)
	return cols, nil
}

// MostFrequent is the second step of §3.4 over per-crisis metric rankings
// (each most relevant first): the n metrics selected for the most crises,
// most frequent first. Ties in frequency go to the metric that ranked
// earlier within its crises (lower rank sum), then to the lower column.
func MostFrequent(rankings [][]int, n int) []int {
	freq := map[int]int{}
	rankSum := map[int]int{}
	for _, top := range rankings {
		for rank, m := range top {
			freq[m]++
			rankSum[m] += rank
		}
	}
	cols := make([]int, 0, len(freq))
	for m := range freq {
		cols = append(cols, m)
	}
	sort.Slice(cols, func(i, j int) bool {
		a, b := cols[i], cols[j]
		if freq[a] != freq[b] {
			return freq[a] > freq[b]
		}
		if rankSum[a] != rankSum[b] {
			return rankSum[a] < rankSum[b]
		}
		return a < b
	})
	if len(cols) > n {
		cols = cols[:n]
	}
	return cols
}
