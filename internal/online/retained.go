package online

import (
	"math"
	"slices"

	"dcfp/internal/metrics"
)

// Retained is one epoch's retained machine samples, metric-major: slot i's
// value of metric j is X[j*n+i], so each metric is one contiguous column, the
// layout ingestion writes and feature selection's sample blocks use. Slots
// are machines in machine order — every machine that delivered a row in
// process, the reporting machines of a merged fleet epoch. live marks the
// slots that reported (a delivered row of nothing but NaN/Inf did not) and
// Viol their any-KPI violation; a slot that did not report is never read.
// nonFinite[j] counts the non-finite cells ingestion wrote into column j, so
// sanitization visits only those columns. A ring slot's Epoch is the epoch it
// holds.
//
// A checkpoint keeps Epoch, X and Viol of the reporting slots only.
type Retained struct {
	Epoch metrics.Epoch
	X     []float64
	Viol  []bool

	n         int
	live      []bool
	reporting int // live slots
	nonFinite []int
}

func (s *Retained) col(j int) []float64 { return s.X[j*s.n : (j+1)*s.n] }

// Reset shapes s for n slots of width metrics, reusing its storage. The
// cells, Viol and Live are stale until ingestion writes them.
func (s *Retained) Reset(n, width int) {
	s.n = n
	s.X = slices.Grow(s.X[:0], n*width)[:n*width]
	s.live = slices.Grow(s.live[:0], n)[:n]
	s.Viol = slices.Grow(s.Viol[:0], n)[:n]
	s.nonFinite = slices.Grow(s.nonFinite[:0], width)[:width]
	clear(s.nonFinite)
}

// Live is the per-slot liveness mask ingestion writes.
func (s *Retained) Live() []bool { return s.live }

// NonFinite is the per-column non-finite count ingestion writes.
func (s *Retained) NonFinite() []int { return s.nonFinite }

// Finish completes an ingested epoch and returns how many slots reported. It
// substitutes the epoch's cross-machine median for every non-finite cell, in
// the columns ingestion counted any in, so standardization in feature
// selection never sees NaN/Inf. A column's walk stops at its last counted
// cell; the test is the filter's (all 11 exponent bits set).
func (s *Retained) Finish(summary [][3]float64) int {
	s.reporting = 0
	for _, l := range s.live {
		if l {
			s.reporting++
		}
	}
	for j, bad := range s.nonFinite {
		if bad == 0 {
			continue
		}
		col := s.col(j)
		for i := 0; bad > 0 && i < len(col); i++ {
			if math.Float64bits(col[i])<<1 >= 0x7ff<<53 {
				col[i] = summary[j][1]
				bad--
			}
		}
	}
	return s.reporting
}

// samples returns the live slots as a fresh metric-major block, the form
// logreg.Samples keeps: one copy per column when every slot reported, a
// compacting pass otherwise. pos receives the live slots' violation flags.
func (s *Retained) samples(width int, pos []bool) ([]float64, []bool) {
	n := s.reporting
	x := make([]float64, width*n)
	if n == s.n {
		for j := 0; j < width; j++ {
			copy(x[j*n:(j+1)*n], s.col(j))
		}
		return x, append(pos, s.Viol...)
	}
	for j := 0; j < width; j++ {
		out := x[j*n : (j+1)*n]
		k := 0
		for i, v := range s.col(j) {
			if s.live[i] {
				out[k] = v
				k++
			}
		}
	}
	for i, v := range s.Viol {
		if s.live[i] {
			pos = append(pos, v)
		}
	}
	return x, pos
}
