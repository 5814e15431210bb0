// Package core implements the paper's primary contribution: datacenter
// fingerprints.
//
// A fingerprint summarizes the performance state of the whole datacenter in
// a vector that is independent of the number of machines and linear in the
// number of tracked metrics (§3.1):
//
//  1. Each metric is summarized across all machines by its 25th/50th/95th
//     quantiles (internal/metrics, internal/quantile).
//  2. Each quantile value is discretized against hot/cold thresholds —
//     the 2nd/98th percentiles of its values over a crisis-free moving
//     window (§3.3) — into {-1, 0, +1}.
//  3. Only the *relevant* metrics survive, chosen by L1-regularized
//     logistic regression over machine-level crisis data (§3.4).
//  4. Consecutive epoch fingerprints are averaged into a crisis
//     fingerprint; crises are compared by L2 distance (§3.5).
package core

import (
	"errors"
	"fmt"
	"sort"

	"dcfp/internal/metrics"
	"dcfp/internal/stats"
)

// SummaryRange selects which epochs, relative to the detected start of a
// crisis, are averaged into the crisis fingerprint. The paper's default is
// 30 minutes before detection through 60 minutes after: epochs -2..+4, a
// 7-epoch window (§6.1, §6.3).
type SummaryRange struct {
	// Before is the number of epochs before the detected start (>= 0).
	Before int
	// After is the number of epochs after the detected start (>= 0).
	After int
}

// DefaultSummaryRange is the paper's [-30min, +60min] window.
func DefaultSummaryRange() SummaryRange { return SummaryRange{Before: 2, After: 4} }

// Len reports the window width in epochs.
func (r SummaryRange) Len() int { return r.Before + r.After + 1 }

func (r SummaryRange) validate() error {
	if r.Before < 0 || r.After < 0 {
		return fmt.Errorf("core: invalid summary range %+v", r)
	}
	return nil
}

// Fingerprinter converts raw quantile rows into fingerprints, given the
// current hot/cold thresholds and the current relevant-metric subset.
type Fingerprinter struct {
	thresholds *metrics.Thresholds
	relevant   []int // sorted metric columns
	// gen is the caller-assigned thresholds generation (0 = untagged).
	// Together with relHash it identifies the (thresholds, relevant-set)
	// pair a FingerprintMemo is keyed by.
	gen     uint64
	relHash uint64
}

// NewFingerprinter builds a fingerprinter over the given thresholds and
// relevant metric columns. relevant is copied and sorted; it must be
// non-empty and within the threshold table's metric range.
func NewFingerprinter(th *metrics.Thresholds, relevant []int) (*Fingerprinter, error) {
	if th == nil {
		return nil, errors.New("core: nil thresholds")
	}
	if len(relevant) == 0 {
		return nil, errors.New("core: empty relevant metric set")
	}
	rel := append([]int(nil), relevant...)
	sort.Ints(rel)
	for i, m := range rel {
		if m < 0 || m >= th.NumMetrics() {
			return nil, fmt.Errorf("core: relevant metric %d outside catalog of %d", m, th.NumMetrics())
		}
		if i > 0 && rel[i-1] == m {
			return nil, fmt.Errorf("core: duplicate relevant metric %d", m)
		}
	}
	return &Fingerprinter{thresholds: th, relevant: rel, relHash: hashRelevant(rel)}, nil
}

// hashRelevant is an FNV-1a hash of the sorted relevant-metric columns —
// the relevant-set half of a FingerprintMemo's key.
func hashRelevant(rel []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, m := range rel {
		v := uint64(m)
		for b := 0; b < 8; b++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return h
}

// SetGeneration tags the fingerprinter with the caller's thresholds
// generation. Generations are opaque to core; callers (the online monitor)
// bump theirs whenever thresholds are re-estimated, so a (generation,
// relevant-set) pair uniquely identifies the discretization in force.
// Generation 0 — the default — bypasses every FingerprintMemo, which keeps
// one-shot offline fingerprinters safe by construction.
func (f *Fingerprinter) SetGeneration(gen uint64) { f.gen = gen }

// Generation returns the tagged thresholds generation (0 = untagged).
func (f *Fingerprinter) Generation() uint64 { return f.gen }

// AllMetrics returns the identity relevant set for a catalog of n metrics —
// the "fingerprints (all metrics)" baseline of §4.2.
func AllMetrics(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Relevant returns the fingerprinter's sorted relevant metric columns. The
// slice is owned by the fingerprinter and must not be modified.
func (f *Fingerprinter) Relevant() []int { return f.relevant }

// Size reports the fingerprint vector length: 3 elements (one per tracked
// quantile) per relevant metric — linear in metrics, independent of the
// number of machines.
func (f *Fingerprinter) Size() int { return len(f.relevant) * metrics.NumQuantiles }

// EpochFingerprint discretizes one full track row (all metrics × 3
// quantiles) into the epoch fingerprint over the relevant metrics: each
// element is -1 (cold), 0 (normal) or +1 (hot).
func (f *Fingerprinter) EpochFingerprint(row []float64) ([]float64, error) {
	return f.EpochFingerprintInto(row, make([]float64, 0, f.Size()))
}

// EpochFingerprintInto is EpochFingerprint appending into dst (reset to
// dst[:0] first), so per-epoch callers — the monitor's online forecast
// stage — can reuse one buffer and keep the hot path allocation-free.
func (f *Fingerprinter) EpochFingerprintInto(row, dst []float64) ([]float64, error) {
	if len(row) != f.thresholds.NumMetrics()*metrics.NumQuantiles {
		return nil, fmt.Errorf("core: row width %d, want %d", len(row), f.thresholds.NumMetrics()*metrics.NumQuantiles)
	}
	fp := dst[:0]
	for _, m := range f.relevant {
		for qi := 0; qi < metrics.NumQuantiles; qi++ {
			v := row[m*metrics.NumQuantiles+qi]
			fp = append(fp, float64(f.thresholds.State(m, qi, v)))
		}
	}
	return fp, nil
}

// CrisisFingerprint averages epoch fingerprints over the summary range
// anchored at the detected crisis start, reading raw quantile rows from the
// track. Epochs outside the track are skipped; at least one epoch must be
// available.
func (f *Fingerprinter) CrisisFingerprint(track *metrics.QuantileTrack, detectedStart metrics.Epoch, r SummaryRange) ([]float64, error) {
	return f.CrisisFingerprintUpTo(track, detectedStart, r, detectedStart+metrics.Epoch(r.After))
}

// CrisisFingerprintUpTo is CrisisFingerprint truncated at upTo: it averages
// only the epochs of the summary window that have already been observed.
// This is what online identification uses during the first epochs of a
// crisis, before the full window exists.
func (f *Fingerprinter) CrisisFingerprintUpTo(track *metrics.QuantileTrack, detectedStart metrics.Epoch, r SummaryRange, upTo metrics.Epoch) ([]float64, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	if track == nil {
		return nil, errors.New("core: nil track")
	}
	lo := detectedStart - metrics.Epoch(r.Before)
	hi := detectedStart + metrics.Epoch(r.After)
	if upTo < hi {
		hi = upTo
	}
	var eps [][]float64
	for e := lo; e <= hi; e++ {
		if e < 0 || int(e) >= track.NumEpochs() {
			continue
		}
		row, err := track.EpochRow(e)
		if err != nil {
			return nil, err
		}
		fp, err := f.EpochFingerprint(row)
		if err != nil {
			return nil, err
		}
		eps = append(eps, fp)
	}
	if len(eps) == 0 {
		return nil, fmt.Errorf("core: summary window [%d,%d] has no observed epochs", lo, hi)
	}
	return stats.MeanVector(eps)
}

// FingerprintMemo holds one stored crisis's fingerprint with the (thresholds
// generation, relevant set) it was computed under. A stored crisis's summary
// window is closed and the track never rewrites it, so within one such pair
// its fingerprint cannot change, and re-discretizing every stored crisis on
// each identification epoch would be the online hot path's dominant
// repeated cost.
type FingerprintMemo struct {
	gen, rel uint64
	fp       []float64
}

// StoredFingerprint returns the fingerprint of a stored crisis (§6.3): its
// summary window over the track, closed at the epoch the crisis closed at
// (CrisisFingerprintUpTo), under f's current thresholds and relevant metrics.
// When f carries a generation (SetGeneration) and memo was filled under the
// same generation and relevant set, the memoized fingerprint is returned and
// hit is true; otherwise it is computed and, for a tagged f, kept in memo.
// The returned slice may be memo's: callers must not modify it.
func (f *Fingerprinter) StoredFingerprint(memo *FingerprintMemo, track *metrics.QuantileTrack, detectedStart metrics.Epoch, r SummaryRange, closedAt metrics.Epoch) (fp []float64, hit bool, err error) {
	if f.gen != 0 && memo.fp != nil && memo.gen == f.gen && memo.rel == f.relHash {
		return memo.fp, true, nil
	}
	fp, err = f.CrisisFingerprintUpTo(track, detectedStart, r, closedAt)
	if err != nil {
		return nil, false, err
	}
	if f.gen != 0 {
		*memo = FingerprintMemo{gen: f.gen, rel: f.relHash, fp: fp}
	}
	return fp, false, nil
}

// BytesPerCrisis reports the raw-quantile cost of keeping one crisis with
// the given summary window, reproducing the §6.3 accounting (the paper
// counts 100 metrics × 3 quantiles × 7 epochs × 4 bytes = 8400 B; the track
// holds float64, doubling it).
func BytesPerCrisis(numMetrics int, r SummaryRange) int {
	return numMetrics * metrics.NumQuantiles * r.Len() * 8
}

// EpochGrid returns the raw {-1,0,+1} grid of the summary window — one row
// per epoch — for visualization in the style of Figure 1.
func (f *Fingerprinter) EpochGrid(track *metrics.QuantileTrack, detectedStart metrics.Epoch, r SummaryRange) ([][]float64, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	var grid [][]float64
	for e := detectedStart - metrics.Epoch(r.Before); e <= detectedStart+metrics.Epoch(r.After); e++ {
		if e < 0 || int(e) >= track.NumEpochs() {
			continue
		}
		row, err := track.EpochRow(e)
		if err != nil {
			return nil, err
		}
		fp, err := f.EpochFingerprint(row)
		if err != nil {
			return nil, err
		}
		grid = append(grid, fp)
	}
	if len(grid) == 0 {
		return nil, errors.New("core: empty epoch grid")
	}
	return grid, nil
}

// Distance is the fingerprint similarity metric of §3.5: the L2 distance
// between two crisis fingerprints. Two crises are considered identical when
// their distance falls below the identification threshold.
func Distance(a, b []float64) (float64, error) { return stats.L2Distance(a, b) }
