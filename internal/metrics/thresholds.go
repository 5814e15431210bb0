package metrics

import (
	"errors"
	"fmt"
	"sort"

	"dcfp/internal/quantile"
	"dcfp/internal/stats"
)

// ThresholdConfig controls hot/cold threshold estimation (§3.3).
type ThresholdConfig struct {
	// ColdPercentile and HotPercentile bound the normal regime of each
	// metric quantile. The paper uses 2 and 98: quantile values outside
	// the [2nd, 98th] percentile of recent crisis-free observations are
	// cold/hot, accepting a 4% baseline rate of out-of-normal epochs.
	ColdPercentile float64
	HotPercentile  float64
	// WindowEpochs is the moving-window length T expressed in epochs.
	// The paper evaluates T at {240, 120, 60, 30, 7} days.
	WindowEpochs int
}

// DefaultThresholdConfig is the paper's best-performing setting: 2nd/98th
// percentiles over a 240-day moving window.
func DefaultThresholdConfig() ThresholdConfig {
	return ThresholdConfig{
		ColdPercentile: 2,
		HotPercentile:  98,
		WindowEpochs:   240 * EpochsPerDay,
	}
}

func (c ThresholdConfig) validate() error {
	if c.WindowEpochs <= 0 {
		return fmt.Errorf("metrics: window of %d epochs must be positive", c.WindowEpochs)
	}
	if c.ColdPercentile < 0 || c.HotPercentile > 100 || c.ColdPercentile >= c.HotPercentile {
		return fmt.Errorf("metrics: invalid percentile pair (%v, %v)", c.ColdPercentile, c.HotPercentile)
	}
	return nil
}

// Thresholds holds the hot and cold boundary per (metric, tracked quantile).
// A quantile value v of metric m is cold when v < Cold[m][q], hot when
// v > Hot[m][q], and normal otherwise.
type Thresholds struct {
	Cold [][3]float64
	Hot  [][3]float64
	// ComputedAt is the last epoch included in the estimation window.
	ComputedAt Epoch
	// NormalEpochs counts how many crisis-free epochs the window supplied.
	NormalEpochs int
	Config       ThresholdConfig
}

// ErrNoNormalEpochs is returned when the estimation window contains no
// crisis-free epochs to learn from.
var ErrNoNormalEpochs = errors.New("metrics: no normal epochs in threshold window")

// ComputeThresholds estimates hot/cold thresholds from the quantile track
// over the window (end-WindowEpochs, end], using only epochs for which
// isNormal reports true (i.e. no KPI SLA violation was in progress, §3.3
// step 1). The window is clamped to the start of the track.
func ComputeThresholds(track *QuantileTrack, isNormal func(Epoch) bool, end Epoch, cfg ThresholdConfig) (*Thresholds, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if track == nil {
		return nil, errors.New("metrics: nil track")
	}
	if end < 0 || int(end) >= track.NumEpochs() {
		return nil, ErrEpochRange
	}
	if isNormal == nil {
		return nil, errors.New("metrics: nil isNormal predicate")
	}
	start := int(end) - cfg.WindowEpochs + 1
	if start < 0 {
		start = 0
	}
	var normals [][]float64 // the window's normal epochs' rows
	for e := Epoch(start); e <= end; e++ {
		if isNormal(e) {
			row, err := track.EpochRow(e)
			if err != nil {
				return nil, err
			}
			normals = append(normals, row)
		}
	}
	if len(normals) == 0 {
		return nil, ErrNoNormalEpochs
	}

	nm := track.NumMetrics()
	th := &Thresholds{
		Cold:         make([][3]float64, nm),
		Hot:          make([][3]float64, nm),
		ComputedAt:   end,
		NormalEpochs: len(normals),
		Config:       cfg,
	}
	// Each (metric, quantile) column needs two percentiles, not an order:
	// one selection over the column answers both, with
	// stats.PercentileSorted's rank p/100·(n−1) and interpolation. A column
	// holding a NaN is sorted and read by PercentileSorted as a whole. Only
	// where a percentile lands on a zero may its sign bit differ from a
	// sort's, whose order between −0 and +0 is unspecified (quantile.Exact).
	qs := []float64{cfg.ColdPercentile / 100, cfg.HotPercentile / 100}
	var est quantile.Exact
	col := make([]float64, len(normals))
	var out [2]float64
	for c := 0; c < nm*NumQuantiles; c++ {
		nan := false
		for i, row := range normals {
			v := row[c]
			col[i] = v
			nan = nan || v != v
		}
		var err error
		if nan {
			sort.Float64s(col)
			if out[0], err = stats.PercentileSorted(col, cfg.ColdPercentile); err == nil {
				out[1], err = stats.PercentileSorted(col, cfg.HotPercentile)
			}
		} else {
			est.Reset()
			est.InsertBatch(col)
			err = est.QueryInto(qs, out[:])
		}
		if err != nil {
			return nil, err
		}
		th.Cold[c/NumQuantiles][c%NumQuantiles] = out[0]
		th.Hot[c/NumQuantiles][c%NumQuantiles] = out[1]
	}
	return th, nil
}

// State discretizes quantile value v of metric m, tracked quantile qi into
// the fingerprint alphabet: -1 (cold), 0 (normal), +1 (hot).
func (t *Thresholds) State(m, qi int, v float64) int8 {
	switch {
	case v < t.Cold[m][qi]:
		return -1
	case v > t.Hot[m][qi]:
		return +1
	default:
		return 0
	}
}

// NumMetrics reports how many metrics the thresholds cover.
func (t *Thresholds) NumMetrics() int { return len(t.Cold) }
