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
// from cache, and amortizes each GatherFinite call over hundreds of values.
const batchStrip = 256

// ObserveBatchFiltered records a batch of machine rows, skipping non-finite
// values instead of feeding them to the estimators, and reports how many
// values were dropped. A nil row marks a machine that delivered nothing this
// epoch and is skipped whole. When reporting is non-nil (len(rows) entries),
// reporting[i] is set to whether row i contributed at least one finite value.
// A row of the wrong width is an error; every row before it is still fully
// ingested.
//
// Ingestion is columnar: each strip of batchStrip delivered rows is walked
// one metric at a time, and each estimator filters its column of the strip
// itself (GatherFinite: one call per strip instead of one Insert per cell,
// through a strip-sized scratch column that stays in L1),
// in machine order — the order the per-cell path would insert them — so
// exact estimators end up byte-identical. With workers > 1 the columns are
// split over that many goroutines (forEachMetric), each walking the same
// strips down its own column range with its own per-row drop counts, whose
// sums give the same drop count and reporting flags; workers <= 1 is the
// serial path, with no goroutine.
func (a *Aggregator) ObserveBatchFiltered(workers int, rows [][]float64, reporting []bool) (int, error) {
	return a.observeBatch(workers, rows, reporting, retain{})
}

// ObserveBatchRetained is ObserveBatchFiltered that also keeps the batch,
// transposed: every cell of the k-th delivered (non-nil) row, finite or not,
// lands in dst[m*n+k] for metric m, with n the number of delivered rows
// (len(dst) must be NumMetrics × n), and nonFinite[m] (NumMetrics entries)
// grows by the non-finite cells of column m. The filter kernel gathers each
// strip's column into dst instead of its scratch column and filters it from
// there, so keeping the epoch costs no pass over the rows of its own.
func (a *Aggregator) ObserveBatchRetained(workers int, rows [][]float64, reporting []bool, dst []float64, nonFinite []int) (int, error) {
	nm := len(a.ests)
	delivered := 0
	for _, row := range rows {
		if row != nil {
			delivered++
		}
	}
	if len(dst) != nm*delivered || len(nonFinite) != nm {
		return 0, fmt.Errorf("metrics: retained slab of %d cells and %d counts for %d delivered rows of %d metrics",
			len(dst), len(nonFinite), delivered, nm)
	}
	return a.observeBatch(workers, rows, reporting, retain{dst, delivered, nonFinite})
}

// retain is where a batch's cells are kept: dst metric-major with stride
// slots per metric, nonFinite the per-metric count of non-finite cells. The
// zero value keeps nothing: each strip's column goes to the worker's scratch.
type retain struct {
	dst       []float64
	stride    int
	nonFinite []int
}

func (a *Aggregator) observeBatch(workers int, rows [][]float64, reporting []bool, keep retain) (int, error) {
	if reporting != nil && len(reporting) != len(rows) {
		return 0, fmt.Errorf("metrics: reporting has %d entries for %d rows", len(reporting), len(rows))
	}
	nm := len(a.ests)
	if workers = min(workers, nm); workers <= 1 {
		return a.filter(a.scratch[0], 0, nm, rows, reporting, nil, keep)
	}
	for _, sc := range a.workerScratch(workers) {
		if cap(sc.counts) < len(rows) {
			sc.counts = make([]int, len(rows))
		}
		sc.counts = sc.counts[:len(rows)]
	}
	// Every worker stops at the same wrong-width row with the same error.
	err := a.forEachMetric(workers, func(w, lo, hi int) error {
		sc := a.scratch[w]
		_, err := a.filter(sc, lo, hi, rows, nil, sc.counts, keep)
		return err
	})
	dropped := 0
	for i, row := range rows {
		if row == nil {
			if reporting != nil {
				reporting[i] = false
			}
			continue
		}
		if len(row) != nm {
			break
		}
		d := 0
		for _, sc := range a.scratch[:workers] {
			d += sc.counts[i]
		}
		dropped += d
		if reporting != nil {
			reporting[i] = d < nm
		}
	}
	return dropped, err
}

// filter walks rows in strips of batchStrip delivered rows and feeds each
// strip's columns [lo, hi) to their estimators, keeping the cells where keep
// says. Without counts it accounts the rows itself: their non-finite cells go
// to the returned count and, when reporting is non-nil, their flags into
// reporting. A parallel worker passes counts instead and gets each delivered
// row i's non-finite cells over its columns in counts[i]. It stops at the
// first row of the wrong width, every row before it ingested.
func (a *Aggregator) filter(sc *stripScratch, lo, hi int, rows [][]float64, reporting []bool, counts []int, keep retain) (int, error) {
	nm := len(a.ests)
	dropped := 0
	base := 0 // delivered rows before the strip
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
		for m := lo; m < hi; m++ {
			if keep.dst == nil {
				a.ests[m].GatherFinite(sc.rows[:k], m, drops, sc.col[:k])
				continue
			}
			at := m*keep.stride + base
			keep.nonFinite[m] += a.ests[m].GatherFinite(sc.rows[:k], m, drops, keep.dst[at:at+k])
		}
		base += k
		if counts != nil {
			for i, d := range drops {
				counts[sc.at[i]] = d
			}
		} else {
			for i, d := range drops {
				dropped += d
				if reporting != nil {
					reporting[sc.at[i]] = d < nm
				}
			}
		}
		if widthErr != nil {
			return dropped, widthErr
		}
	}
	return dropped, nil
}

// ObserveColumns records metric-major blocks of cells, the shape a fleet
// frame ships: block k holds n_k machines as NumMetrics runs of n_k values
// (metric m's at srcs[k][m*n_k:(m+1)*n_k]). Each column goes to its
// estimator in one pass that also copies it into dst — metric-major, stride
// len(dst)/NumMetrics slots per metric, block k's machines from slot at[k] —
// and adds its non-finite cells, which the estimator skips, to nonFinite[m].
// Every estimator takes the blocks in the order given, so the result does not
// depend on workers, which split the metric columns as in
// ObserveBatchFiltered. A malformed shape is an error before anything is
// ingested.
func (a *Aggregator) ObserveColumns(workers int, srcs [][]float64, at []int, dst []float64, nonFinite []int) error {
	nm := len(a.ests)
	if len(at) != len(srcs) || len(dst)%nm != 0 || len(nonFinite) != nm {
		return fmt.Errorf("metrics: %d blocks at %d slots into %d cells with %d counts for %d metrics",
			len(srcs), len(at), len(dst), len(nonFinite), nm)
	}
	stride := len(dst) / nm
	for k, src := range srcs {
		if n := len(src) / nm; len(src)%nm != 0 || at[k] < 0 || at[k]+n > stride {
			return fmt.Errorf("metrics: block %d of %d cells at slot %d does not fit %d metrics × %d slots",
				k, len(src), at[k], nm, stride)
		}
	}
	if workers = min(workers, nm); workers <= 1 {
		a.absorb(0, nm, srcs, at, dst, nonFinite)
		return nil
	}
	return a.forEachMetric(workers, func(_, lo, hi int) error {
		a.absorb(lo, hi, srcs, at, dst, nonFinite)
		return nil
	})
}

// absorb is ObserveColumns over the metric columns [lo, hi).
func (a *Aggregator) absorb(lo, hi int, srcs [][]float64, at []int, dst []float64, nonFinite []int) {
	nm := len(a.ests)
	stride := len(dst) / nm
	for m := lo; m < hi; m++ {
		est := a.ests[m]
		for k, src := range srcs {
			n := len(src) / nm
			d := m*stride + at[k]
			nonFinite[m] += est.InsertFiniteColumn(src[m*n:(m+1)*n], dst[d:d+n])
		}
	}
}

// ScanBatchFiltered is ObserveBatchFiltered's accounting without the
// estimators, for a fleet shard that ships its reporting rows by metric
// column and leaves the quantile state to the coordinator: reporting[i]
// (len(rows) entries) is set to whether row i holds at least one finite value
// — false for a nil row — and the returned count is the non-finite cells of
// every delivered row. The same pass lays the reporting rows out metric-major
// in cols, which must hold width × len(rows) values: with n reporting rows,
// metric m's values, in row order, end up at cols[m*n:(m+1)*n], and
// cols[:width*n] is returned. A row not width wide is an error; the rows
// before it are accounted.
func ScanBatchFiltered(rows [][]float64, width int, reporting []bool, cols []float64) ([]float64, int, error) {
	if len(reporting) != len(rows) {
		return nil, 0, fmt.Errorf("metrics: reporting has %d entries for %d rows", len(reporting), len(rows))
	}
	if len(cols) < width*len(rows) {
		return nil, 0, fmt.Errorf("metrics: %d column cells for %d rows of %d metrics", len(cols), len(rows), width)
	}
	// Each row is written at stride len(rows) as it is scanned; a row that
	// turns out not to report is overwritten by the next one, and the
	// columns close ranks once at the end if any did not.
	stride := len(rows)
	dropped, n := 0, 0
	for i, row := range rows {
		if row == nil {
			reporting[i] = false
			continue
		}
		if len(row) != width {
			return nil, dropped, fmt.Errorf("metrics: row has %d values, want %d", len(row), width)
		}
		drops := 0
		for m, v := range row {
			cols[m*stride+n] = v
			if v-v != 0 { // NaN or ±Inf
				drops++
			}
		}
		dropped += drops
		reporting[i] = drops < width
		if reporting[i] {
			n++
		}
	}
	if n < stride {
		for m := 1; m < width; m++ {
			copy(cols[m*n:(m+1)*n], cols[m*stride:m*stride+n])
		}
	}
	return cols[:width*n], dropped, nil
}

// summarize reads the tracked quantiles of metrics [lo, hi) into out, with
// sc's selection scratch, and resets their estimators for the next epoch. A
// metric with no observations this epoch is a gap, not an error: it falls
// back to prev[m] (the previous epoch's quantiles — last observation carried
// forward), or zeros when prev is nil. It returns the gaps.
func (a *Aggregator) summarize(sc *stripScratch, lo, hi int, out, prev [][3]float64) (int, error) {
	gaps := 0
	for m := lo; m < hi; m++ {
		est := a.ests[m]
		if est.Count() == 0 {
			gaps++
			out[m] = [3]float64{}
			if prev != nil {
				out[m] = prev[m]
			}
			continue
		}
		s, err := quantile.SummarizeWith(est, &sc.sel)
		if err != nil {
			return gaps, fmt.Errorf("metrics: metric %d: %w", m, err)
		}
		est.Reset()
		out[m] = s
	}
	return gaps, nil
}

// SummarizeInto writes the epoch's per-metric tracked quantiles into out
// (NumMetrics entries) and resets the aggregator for the next epoch. It
// survives metrics nobody reported, substituting prev (typically the
// previous epoch's summary; nil means zeros), and returns how many metrics
// needed the fallback. With workers > 1 the metric columns are split over
// that many goroutines (forEachMetric), each selecting in its own scratch;
// metrics are independent, so out is the same for any worker count. A tight
// epoch loop reuses one out buffer and allocates nothing.
func (a *Aggregator) SummarizeInto(workers int, out, prev [][3]float64) (int, error) {
	n := a.NumMetrics()
	if len(out) != n {
		return 0, fmt.Errorf("metrics: summary buffer has %d metrics, want %d", len(out), n)
	}
	if prev != nil && len(prev) != n {
		return 0, fmt.Errorf("metrics: fallback summary has %d metrics, want %d", len(prev), n)
	}
	if workers = min(workers, n); workers <= 1 {
		// The closure forEachMetric takes escapes to its goroutines; the
		// serial epoch path stays allocation-free by not building one.
		return a.summarize(a.scratch[0], 0, n, out, prev)
	}
	scratch := a.workerScratch(workers)
	var gaps atomic.Int64
	err := a.forEachMetric(workers, func(w, lo, hi int) error {
		g, err := a.summarize(scratch[w], lo, hi, out, prev)
		gaps.Add(int64(g))
		return err
	})
	return int(gaps.Load()), err
}

// SummarizeLenient is the serial SummarizeInto into a fresh buffer.
func (a *Aggregator) SummarizeLenient(prev [][3]float64) ([][3]float64, int, error) {
	out := make([][3]float64, a.NumMetrics())
	gaps, err := a.SummarizeInto(1, out, prev)
	if err != nil {
		return nil, 0, err
	}
	return out, gaps, nil
}
