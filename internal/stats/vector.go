package stats

import (
	"fmt"
	"math"
)

// L2Distance returns the Euclidean distance between equal-length vectors a
// and b. Fingerprint similarity in §3.5 is exactly this distance on crisis
// fingerprint summaries.
func L2Distance(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: vector length mismatch %d != %d", len(a), len(b))
	}
	ss := 0.0
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss), nil
}

// Norm2 returns the Euclidean norm of a.
func Norm2(a []float64) float64 {
	ss := 0.0
	for _, x := range a {
		ss += x * x
	}
	return math.Sqrt(ss)
}

// MeanVector averages a set of equal-length vectors element-wise. This is
// how consecutive epoch fingerprints are combined into a crisis fingerprint
// (§3.5): each element becomes columnSum/epochCount.
func MeanVector(vs [][]float64) ([]float64, error) {
	if len(vs) == 0 {
		return nil, ErrEmpty
	}
	n := len(vs[0])
	out := make([]float64, n)
	for _, v := range vs {
		if len(v) != n {
			return nil, fmt.Errorf("stats: vector length mismatch %d != %d", len(v), n)
		}
		for i, x := range v {
			out[i] += x
		}
	}
	k := 1 / float64(len(vs))
	for i := range out {
		out[i] *= k
	}
	return out, nil
}
