package core

import (
	"errors"
	"fmt"

	"dcfp/internal/metrics"
	"dcfp/internal/stats"
)

// StoredCrisis is the bookkeeping record the method keeps per past crisis
// (§6.3): the raw quantile values of every collected metric over the
// crisis's summary window, from which its fingerprint is recomputed under
// whatever thresholds and relevant metrics are current.
type StoredCrisis struct {
	// ID identifies the crisis.
	ID string
	// Label is the operator diagnosis; empty while undiagnosed.
	Label string
	// DetectedStart is the epoch the SLA rule first fired.
	DetectedStart metrics.Epoch
	// Rows are the raw full-width quantile rows (numMetrics×3 wide) of
	// the summary window epochs.
	Rows [][]float64
}

// Store holds the crisis history. Fingerprints of past crises are
// recomputed from the stored raw quantiles whenever thresholds or the
// relevant-metric set change, the paper's preferred mode; the ablation that
// freezes them (Figure 8) is experiment.FPConfig.FrozenStore.
type Store struct {
	width  int
	crises []StoredCrisis

	// Fingerprint cache. Re-discretizing every stored crisis's raw rows on
	// each of the 5 identification epochs is the online hot path's dominant
	// repeated cost; within one (thresholds generation, relevant-set)
	// window the result cannot change, so it is memoized per crisis. The
	// whole cache is dropped the moment a fingerprinter with a different
	// generation or relevant set arrives — exactly when the monitor
	// refreshes thresholds or the relevant metrics move. Untagged
	// fingerprinters (generation 0) bypass the cache entirely.
	cacheGen  uint64
	cacheRel  uint64
	cache     map[int][]float64
	cacheHits uint64
	cacheMiss uint64
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Len reports the number of stored crises.
func (s *Store) Len() int { return len(s.crises) }

// Width reports the stored rows' width (0 before the first crisis).
func (s *Store) Width() int { return s.width }

// Crisis returns the i-th stored crisis.
func (s *Store) Crisis(i int) (*StoredCrisis, error) {
	if i < 0 || i >= len(s.crises) {
		return nil, fmt.Errorf("core: store index %d out of %d", i, len(s.crises))
	}
	return &s.crises[i], nil
}

// SetLabel records the operator diagnosis of stored crisis i, after the
// fact — exactly how a previously unknown crisis becomes known once
// operators resolve it.
func (s *Store) SetLabel(i int, label string) error {
	c, err := s.Crisis(i)
	if err != nil {
		return err
	}
	c.Label = label
	return nil
}

// Add stores a crisis: its identity and the raw quantile rows of its
// summary window, three quantiles per metric, all as wide as the rows
// already stored. The store keeps rows, which the caller gives up: nothing
// may write them after (CaptureRows' views of a track qualify), and the
// store only reads them.
func (s *Store) Add(id, label string, detectedStart metrics.Epoch, rows [][]float64) error {
	if len(rows) == 0 {
		return errors.New("core: storing crisis with no rows")
	}
	w := len(rows[0])
	if w == 0 || w%metrics.NumQuantiles != 0 {
		return fmt.Errorf("core: row width %d is not a positive multiple of %d quantiles", w, metrics.NumQuantiles)
	}
	if s.width != 0 && w != s.width {
		return fmt.Errorf("core: row width %d differs from store width %d", w, s.width)
	}
	for _, r := range rows {
		if len(r) != w {
			return fmt.Errorf("core: ragged rows (%d vs %d)", len(r), w)
		}
	}
	s.width = w
	s.crises = append(s.crises, StoredCrisis{
		ID:            id,
		Label:         label,
		DetectedStart: detectedStart,
		Rows:          rows,
	})
	return nil
}

// Fingerprint returns the crisis fingerprint of stored crisis i under the
// given fingerprinter: the stored raw rows re-discretized with its current
// thresholds and projected on its relevant metrics.
//
// When f carries a non-zero generation (SetGeneration), results are cached
// per (generation, relevant-set) window, making repeat calls O(1). Cached
// results are shared slices: callers must not modify the returned
// fingerprint.
func (s *Store) Fingerprint(i int, f *Fingerprinter) ([]float64, error) {
	c, err := s.Crisis(i)
	if err != nil {
		return nil, err
	}
	if f.thresholds.NumMetrics()*metrics.NumQuantiles != s.width {
		return nil, fmt.Errorf("core: fingerprinter width mismatch")
	}
	cacheable := f.gen != 0
	if cacheable {
		if f.gen != s.cacheGen || f.relHash != s.cacheRel {
			s.cacheGen, s.cacheRel = f.gen, f.relHash
			s.cache = nil
		}
		if fp, ok := s.cache[i]; ok {
			s.cacheHits++
			return fp, nil
		}
	}
	eps := make([][]float64, len(c.Rows))
	for j, r := range c.Rows {
		fp, err := f.EpochFingerprint(r)
		if err != nil {
			return nil, err
		}
		eps[j] = fp
	}
	fp, err := stats.MeanVector(eps)
	if err != nil {
		return nil, err
	}
	if cacheable {
		if s.cache == nil {
			s.cache = make(map[int][]float64, len(s.crises))
		}
		s.cache[i] = fp
		s.cacheMiss++
	}
	return fp, nil
}

// CacheStats reports cumulative fingerprint-cache hits and misses
// (generation-tagged fingerprinters only). A miss is a cacheable
// computation that had to run; untagged calls count as neither.
func (s *Store) CacheStats() (hits, misses uint64) { return s.cacheHits, s.cacheMiss }

// BytesPerCrisis reports the raw-quantile storage cost of one crisis with
// the given summary window, reproducing the §6.3 accounting (the paper
// counts 100 metrics × 3 quantiles × 7 epochs × 4 bytes = 8400 B; we store
// float64, doubling it).
func BytesPerCrisis(numMetrics int, r SummaryRange) int {
	return numMetrics * metrics.NumQuantiles * r.Len() * 8
}

// CaptureRows returns the raw quantile rows of the summary window anchored
// at detectedStart — the data Add stores per crisis — as read-only views of
// the track's storage (capped, so an append copies): a track's blocks never
// move and AppendEpoch writes each row once, so the views outlive any growth
// of the track. A caller that rewrites captured epochs (SetEpoch) or drops
// the track's blocks must copy the rows out first.
func CaptureRows(track *metrics.QuantileTrack, detectedStart metrics.Epoch, r SummaryRange) ([][]float64, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	if track == nil {
		return nil, errors.New("core: nil track")
	}
	var rows [][]float64
	for e := detectedStart - metrics.Epoch(r.Before); e <= detectedStart+metrics.Epoch(r.After); e++ {
		if e < 0 || int(e) >= track.NumEpochs() {
			continue
		}
		row, err := track.EpochRow(e)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: no epochs to capture around %d", detectedStart)
	}
	return rows, nil
}
