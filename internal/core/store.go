package core

import (
	"errors"
	"fmt"

	"dcfp/internal/metrics"
	"dcfp/internal/stats"
)

// StoredCrisis is the bookkeeping record the method keeps per past crisis
// (§6.3): the raw quantile values of every collected metric over the
// crisis's summary window, plus the discretized state averaged with the
// thresholds in force when the crisis occurred (for the frozen-threshold
// ablation of Figure 8).
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
	// frozenFull is the full-width crisis state averaged under the
	// thresholds at storage time.
	frozenFull []float64
}

// Store holds the crisis history. In the paper's preferred mode
// (UpdateFingerprints = true) fingerprints of past crises are recomputed
// from the stored raw quantiles whenever thresholds or the relevant-metric
// set change; the frozen mode reproduces the §6.3 ablation, which costs
// about 5 accuracy points.
type Store struct {
	// UpdateFingerprints selects recompute-on-read (true, paper default)
	// versus frozen-at-storage-time fingerprints (false, Figure 8).
	UpdateFingerprints bool

	width  int
	crises []StoredCrisis

	// Fingerprint cache for update mode. Re-discretizing every stored
	// crisis's raw rows on each of the 5 identification epochs is the
	// online hot path's dominant repeated cost; within one (thresholds
	// generation, relevant-set) window the result cannot change, so it is
	// memoized per crisis. The whole cache is dropped the moment a
	// fingerprinter with a different generation or relevant set arrives —
	// exactly when the monitor refreshes thresholds or the relevant
	// metrics move. Untagged fingerprinters (generation 0) bypass the
	// cache entirely.
	cacheGen  uint64
	cacheRel  uint64
	cache     map[int][]float64
	cacheHits uint64
	cacheMiss uint64
}

// NewStore returns an empty store in the given update mode.
func NewStore(update bool) *Store { return &Store{UpdateFingerprints: update} }

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

// Add stores a crisis: its identity, the raw quantile rows of its summary
// window, and — for the frozen mode — the discretized state under the
// thresholds in force now (thAtStorage must cover the full catalog). The
// store keeps rows, which the caller gives up: nothing may write them after
// (CaptureRows' views of a track qualify), and the store only reads them.
func (s *Store) Add(id, label string, detectedStart metrics.Epoch, rows [][]float64, thAtStorage *metrics.Thresholds) error {
	if len(rows) == 0 {
		return errors.New("core: storing crisis with no rows")
	}
	if thAtStorage == nil {
		return errors.New("core: nil storage-time thresholds")
	}
	w := len(rows[0])
	if w != thAtStorage.NumMetrics()*metrics.NumQuantiles {
		return fmt.Errorf("core: row width %d does not match thresholds over %d metrics", w, thAtStorage.NumMetrics())
	}
	if s.width == 0 {
		s.width = w
	} else if w != s.width {
		return fmt.Errorf("core: row width %d differs from store width %d", w, s.width)
	}
	states := make([][]float64, len(rows))
	full, err := NewFingerprinter(thAtStorage, AllMetrics(thAtStorage.NumMetrics()))
	if err != nil {
		return err
	}
	for i, r := range rows {
		if len(r) != w {
			return fmt.Errorf("core: ragged rows (%d vs %d)", len(r), w)
		}
		st, err := full.EpochFingerprint(r)
		if err != nil {
			return err
		}
		states[i] = st
	}
	frozen, err := stats.MeanVector(states)
	if err != nil {
		return err
	}
	s.crises = append(s.crises, StoredCrisis{
		ID:            id,
		Label:         label,
		DetectedStart: detectedStart,
		Rows:          rows,
		frozenFull:    frozen,
	})
	return nil
}

// Fingerprint returns the crisis fingerprint of stored crisis i under the
// given fingerprinter. In update mode the stored raw rows are re-discretized
// with the fingerprinter's current thresholds; in frozen mode the state
// saved at storage time is reused, and only the relevant-metric projection
// is current.
//
// When f carries a non-zero generation (SetGeneration), update-mode results
// are cached per (generation, relevant-set) window, making repeat calls
// O(1). Cached results are shared slices: callers must not modify the
// returned fingerprint.
func (s *Store) Fingerprint(i int, f *Fingerprinter) ([]float64, error) {
	c, err := s.Crisis(i)
	if err != nil {
		return nil, err
	}
	if f.thresholds.NumMetrics()*metrics.NumQuantiles != s.width {
		return nil, fmt.Errorf("core: fingerprinter width mismatch")
	}
	if s.UpdateFingerprints {
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
	// Frozen mode: project the stored full-width state onto the current
	// relevant set.
	out := make([]float64, 0, f.Size())
	for _, m := range f.relevant {
		for qi := 0; qi < metrics.NumQuantiles; qi++ {
			out = append(out, c.frozenFull[m*metrics.NumQuantiles+qi])
		}
	}
	return out, nil
}

// CacheStats reports cumulative fingerprint-cache hits and misses (update
// mode, generation-tagged fingerprinters only). A miss is a cacheable
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
