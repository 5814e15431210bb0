package metrics

import (
	"fmt"
	"sync/atomic"

	"dcfp/internal/quantile"
)

// Degraded-data ingestion: real collectors deliver rows with holes — NaN for
// a metric the agent failed to sample, Inf from a division blow-up, or no
// row at all for a machine that is down. The paper assumes complete
// telemetry (§4.1); these variants keep the per-epoch quantile summary
// well-defined anyway by filtering non-finite values before they reach the
// estimators and by carrying the previous epoch's quantiles forward for a
// metric no machine reported.

// batchStrip is how many delivered rows the columnar batch path walks at a
// time: 256 rows × 100 metrics is ~200KB of row data, re-read once per column
// from cache, and amortizes each InsertFinite call over hundreds of values.
const batchStrip = 256

// ObserveBatchFiltered records a batch of machine rows into the given shard,
// skipping non-finite values instead of feeding them to the estimators, and
// reports how many values were dropped. Distinct shards may be fed
// concurrently; a single shard must not. A nil row marks a machine that
// delivered nothing this epoch and is skipped whole. When reporting is
// non-nil (len(rows) entries), reporting[i] is set to whether row i
// contributed at least one finite value. A row of the wrong width is an
// error; every row before it is still fully ingested.
//
// Ingestion is columnar: each strip of batchStrip delivered rows is walked
// one metric at a time, and each estimator filters its column of the strip
// itself (InsertFinite: one call per strip instead of one Insert per cell),
// in machine order — the order the per-cell path would insert them — so
// exact estimators end up byte-identical.
func (a *Aggregator) ObserveBatchFiltered(shard int, rows [][]float64, reporting []bool) (int, error) {
	if shard < 0 || shard >= len(a.shards) {
		return 0, fmt.Errorf("metrics: shard %d out of %d (call EnsureShards first)", shard, len(a.shards))
	}
	if reporting != nil && len(reporting) != len(rows) {
		return 0, fmt.Errorf("metrics: reporting has %d entries for %d rows", len(reporting), len(rows))
	}
	ests, sc := a.shards[shard], a.scratch[shard]
	nm := len(ests)
	dropped := 0
	for next := 0; next < len(rows); {
		var widthErr error
		k := 0
		for ; next < len(rows) && k < batchStrip; next++ {
			row := rows[next]
			if row == nil {
				if reporting != nil {
					reporting[next] = false
				}
				continue
			}
			if len(row) != nm {
				widthErr = fmt.Errorf("metrics: row has %d values, want %d", len(row), nm)
				break
			}
			sc.rows[k], sc.at[k] = row, next
			k++
		}
		drops := sc.drops[:k]
		clear(drops)
		for m, est := range ests {
			est.InsertFinite(sc.rows[:k], m, drops)
		}
		for i, d := range drops {
			dropped += d
			if reporting != nil {
				reporting[sc.at[i]] = d < nm
			}
		}
		if widthErr != nil {
			return dropped, widthErr
		}
	}
	return dropped, nil
}

// ScanBatchFiltered is ObserveBatchFiltered's accounting without the
// estimators, for a fleet shard that ships its rows and leaves the quantile
// state to the coordinator: reporting[i] (len(rows) entries) is set to whether
// row i holds at least one finite value — false for a nil row — and the return
// value counts the non-finite cells of every delivered row. A row not width
// wide is an error; the rows before it are accounted.
func ScanBatchFiltered(rows [][]float64, width int, reporting []bool) (int, error) {
	if len(reporting) != len(rows) {
		return 0, fmt.Errorf("metrics: reporting has %d entries for %d rows", len(reporting), len(rows))
	}
	dropped := 0
	for i, row := range rows {
		if row == nil {
			reporting[i] = false
			continue
		}
		if len(row) != width {
			return dropped, fmt.Errorf("metrics: row has %d values, want %d", len(row), width)
		}
		drops := 0
		for _, v := range row {
			if v-v != 0 { // NaN or ±Inf
				drops++
			}
		}
		dropped += drops
		reporting[i] = drops < width
	}
	return dropped, nil
}

// summarizeMetric merges metric m's shard estimators into shard 0, reads
// the tracked quantiles, and resets every shard's estimator for the next
// epoch. A metric with no observations this epoch is a gap, not an error: it
// falls back to prev[m] (the previous epoch's quantiles — last observation
// carried forward), or zeros when no previous summary exists.
func (a *Aggregator) summarizeMetric(m int, prev [][3]float64) ([3]float64, bool, error) {
	primary, err := a.mergeMetricShards(m)
	if err != nil {
		return [3]float64{}, false, err
	}
	if primary.Count() == 0 {
		if prev != nil {
			return prev[m], true, nil
		}
		return [3]float64{}, true, nil
	}
	out, err := quantile.Summarize(primary)
	if err != nil {
		return out, false, fmt.Errorf("metrics: metric %d: %w", m, err)
	}
	primary.Reset()
	return out, false, nil
}

// SummarizeInto writes the epoch's per-metric tracked quantiles into out
// (NumMetrics entries), merging any shards, and resets the aggregator for
// the next epoch. It survives metrics nobody reported, substituting prev
// (typically the previous epoch's summary; nil means zeros), and returns how
// many metrics needed the fallback. A tight epoch loop reuses one out buffer
// and allocates nothing.
func (a *Aggregator) SummarizeInto(out, prev [][3]float64) (int, error) {
	if len(out) != a.NumMetrics() {
		return 0, fmt.Errorf("metrics: summary buffer has %d metrics, want %d", len(out), a.NumMetrics())
	}
	if prev != nil && len(prev) != a.NumMetrics() {
		return 0, fmt.Errorf("metrics: fallback summary has %d metrics, want %d", len(prev), a.NumMetrics())
	}
	gaps := 0
	for m := range out {
		s, gap, err := a.summarizeMetric(m, prev)
		if err != nil {
			return 0, err
		}
		if gap {
			gaps++
		}
		out[m] = s
	}
	return gaps, nil
}

// SummarizeLenient is SummarizeInto into a fresh buffer.
func (a *Aggregator) SummarizeLenient(prev [][3]float64) ([][3]float64, int, error) {
	out := make([][3]float64, a.NumMetrics())
	gaps, err := a.SummarizeInto(out, prev)
	if err != nil {
		return nil, 0, err
	}
	return out, gaps, nil
}

// SummarizeLenientParallel is SummarizeLenient with the per-metric work
// spread over worker goroutines; metrics are independent, so the result is
// identical to SummarizeLenient for any worker count.
func (a *Aggregator) SummarizeLenientParallel(workers int, prev [][3]float64) ([][3]float64, int, error) {
	n := a.NumMetrics()
	if workers <= 1 {
		// The closure forEachMetric takes escapes to its goroutines; the
		// serial epoch path stays allocation-free by not building one.
		return a.SummarizeLenient(prev)
	}
	if prev != nil && len(prev) != n {
		return nil, 0, fmt.Errorf("metrics: fallback summary has %d metrics, want %d", len(prev), n)
	}
	out := make([][3]float64, n)
	var gaps atomic.Int64
	err := a.forEachMetric(workers, func(m int) error {
		s, gap, err := a.summarizeMetric(m, prev)
		if gap {
			gaps.Add(1)
		}
		out[m] = s
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return out, int(gaps.Load()), nil
}
