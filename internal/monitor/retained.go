package monitor

import (
	"math"
	"slices"

	"dcfp/internal/metrics"
)

// epochSamples is one epoch's retained machine samples, metric-major: slot
// i's value of metric j is x[j*n+i], so each metric is one contiguous column,
// the layout ingestion writes and feature selection's sample blocks use.
// Slots are machines in machine order — every machine that delivered a row
// in process, the reporting machines of a merged fleet epoch. live marks the
// slots that reported (a delivered row of nothing but NaN/Inf did not) and
// viol their any-KPI violation; a slot that did not report is never read.
// nonFinite[j] counts the non-finite cells ingestion wrote into column j, so
// sanitization visits only those columns. A ring slot's epoch is the epoch
// it holds.
type epochSamples struct {
	epoch     metrics.Epoch
	x         []float64
	n         int
	live      []bool
	viol      []bool
	reporting int // live slots
	nonFinite []int
}

func (s *epochSamples) col(j int) []float64 { return s.x[j*s.n : (j+1)*s.n] }

// reset shapes s for n slots of width metrics, reusing its storage. The
// cells, live and viol are stale until ingestion writes them.
func (s *epochSamples) reset(n, width int) {
	s.n = n
	s.x = slices.Grow(s.x[:0], n*width)[:n*width]
	s.live = slices.Grow(s.live[:0], n)[:n]
	s.viol = slices.Grow(s.viol[:0], n)[:n]
	s.nonFinite = slices.Grow(s.nonFinite[:0], width)[:width]
	clear(s.nonFinite)
}

// sanitize substitutes the epoch's cross-machine median for every non-finite
// cell, in the columns ingestion counted any in, so standardization in
// feature selection never sees NaN/Inf.
func (s *epochSamples) sanitize(summary [][3]float64) {
	for j, bad := range s.nonFinite {
		if bad == 0 {
			continue
		}
		col := s.col(j)
		for i, v := range col {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				col[i] = summary[j][1]
			}
		}
	}
}

// samples returns the live slots as a fresh metric-major block, the form
// logreg.Samples keeps: one copy per column when every slot reported, a
// compacting pass otherwise. pos receives the live slots' violation flags.
func (s *epochSamples) samples(width int, pos []bool) ([]float64, []bool) {
	n := s.reporting
	x := make([]float64, width*n)
	if n == s.n {
		for j := 0; j < width; j++ {
			copy(x[j*n:(j+1)*n], s.col(j))
		}
		return x, append(pos, s.viol...)
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
	for i, v := range s.viol {
		if s.live[i] {
			pos = append(pos, v)
		}
	}
	return x, pos
}

// restoredSlot is the ring slot a checkpoint's block was written from, every
// machine in it reporting and sanitized; nil (never filled) for a block of no
// machine.
func restoredSlot(b sampleBlock) *epochSamples {
	if len(b.Viol) == 0 {
		return nil
	}
	s := &epochSamples{epoch: b.Epoch, x: b.X, n: len(b.Viol), viol: b.Viol, reporting: len(b.Viol)}
	s.live = make([]bool, s.n)
	for i := range s.live {
		s.live[i] = true
	}
	return s
}
