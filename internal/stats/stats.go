// Package stats provides the order statistic, vector operations and ROC/AUC
// machinery used throughout the fingerprinting pipeline.
//
// Everything here is deliberately dependency-free: the paper's method needs
// only order statistics (quantiles are the fingerprint's summarization
// primitive, §3.2), L2 distances between fingerprint vectors (§3.5), and
// ROC curves for choosing identification thresholds and reporting
// discriminative power (§4.3, §5.1.1).
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by statistics that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

// PercentileSorted returns the p-th percentile (p in [0,100]) of an
// ascending-sorted slice by linear interpolation between closest ranks. It
// neither copies nor sorts, and is the hot path for threshold updates.
func PercentileSorted(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range [0,100]")
	}
	if n == 1 {
		return sorted[0], nil
	}
	// Linear interpolation between closest ranks (the "C = 1" variant):
	// rank r = p/100 * (n-1).
	r := p / 100 * float64(n-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := r - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
