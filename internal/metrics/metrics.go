// Package metrics provides the metric-collection substrate: the epoch grid,
// the metric catalog, per-epoch cross-machine aggregation into quantile
// summaries, and the quantile-track store the fingerprinting pipeline reads.
//
// The paper's datacenter samples ~100 metrics per machine averaged over
// 15-minute epochs (§4.1); the datacenter-wide state per epoch is then the
// 25th/50th/95th quantile of each metric across all machines (§3.2). The
// store keeps the *raw quantile values* for all epochs — the bookkeeping
// §6.3 argues for, so fingerprints can be recomputed as hot/cold thresholds
// drift.
package metrics

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dcfp/internal/quantile"
)

// Epoch indexes the aggregation grid. Epoch 0 is the start of the trace.
type Epoch int

// EpochDuration is the paper's aggregation epoch: established practice in
// the studied datacenter was a 15-minute averaging window.
const EpochDuration = 15 * time.Minute

// EpochsPerDay is the number of epochs in a 24-hour day.
const EpochsPerDay = int(24 * time.Hour / EpochDuration)

// NumQuantiles is the number of tracked quantiles per metric (25/50/95).
// It must equal len(quantile.TrackedQuantiles); an init check enforces it.
const NumQuantiles = 3

func init() {
	if len(quantile.TrackedQuantiles) != NumQuantiles {
		panic("metrics: NumQuantiles disagrees with quantile.TrackedQuantiles")
	}
}

// Catalog names the collected metrics in column order.
type Catalog struct {
	names []string
	index map[string]int
}

// NewCatalog builds a catalog from metric names. Names must be unique.
func NewCatalog(names []string) (*Catalog, error) {
	idx := make(map[string]int, len(names))
	for i, n := range names {
		if n == "" {
			return nil, fmt.Errorf("metrics: empty metric name at %d", i)
		}
		if _, dup := idx[n]; dup {
			return nil, fmt.Errorf("metrics: duplicate metric name %q", n)
		}
		idx[n] = i
	}
	return &Catalog{names: append([]string(nil), names...), index: idx}, nil
}

// Len reports the number of metrics.
func (c *Catalog) Len() int { return len(c.names) }

// Name returns the name of metric i.
func (c *Catalog) Name(i int) string { return c.names[i] }

// Names returns all metric names in column order. The slice is owned by the
// catalog and must not be modified.
func (c *Catalog) Names() []string { return c.names }

// Index returns the column of the named metric.
func (c *Catalog) Index(name string) (int, bool) {
	i, ok := c.index[name]
	return i, ok
}

// QuantileTrack stores the tracked quantile values of every metric for a
// contiguous range of epochs: one float64 per (epoch, metric, quantile), in
// blocks of trackBlockEpochs epochs. A block is allocated whole and never
// moves, so a long-lived track grows one block at a time instead of copying
// itself into an ever larger slice.
type QuantileTrack struct {
	numMetrics int
	epochs     int
	blocks     [][]float64 // trackBlockEpochs rows each; the last partly used
}

// trackBlockEpochs is the number of epochs one block of a track holds.
const trackBlockEpochs = 256

// NewQuantileTrack returns an empty track for numMetrics metrics.
func NewQuantileTrack(numMetrics int) (*QuantileTrack, error) {
	if numMetrics <= 0 {
		return nil, fmt.Errorf("metrics: numMetrics %d must be positive", numMetrics)
	}
	return &QuantileTrack{numMetrics: numMetrics}, nil
}

// NumMetrics reports the number of metrics per epoch.
func (t *QuantileTrack) NumMetrics() int { return t.numMetrics }

// NumEpochs reports how many epochs have been appended.
func (t *QuantileTrack) NumEpochs() int { return t.epochs }

// row is epoch e's storage, which must exist.
func (t *QuantileTrack) row(e int) []float64 {
	w := t.numMetrics * NumQuantiles
	off := e % trackBlockEpochs * w
	return t.blocks[e/trackBlockEpochs][off : off+w : off+w]
}

// grow extends the track by n zeroed epochs.
func (t *QuantileTrack) grow(n int) {
	t.epochs += n
	for len(t.blocks)*trackBlockEpochs < t.epochs {
		t.blocks = append(t.blocks, make([]float64, trackBlockEpochs*t.numMetrics*NumQuantiles))
	}
}

// AppendEpoch appends the quantile summary for the next epoch: one
// [3]float64 (25th/50th/95th) per metric.
func (t *QuantileTrack) AppendEpoch(summary [][3]float64) error {
	if len(summary) != t.numMetrics {
		return fmt.Errorf("metrics: summary has %d metrics, track expects %d", len(summary), t.numMetrics)
	}
	t.grow(1)
	t.setRow(t.epochs-1, summary)
	return nil
}

// Grow extends the track by n zeroed epochs, to be filled in with SetEpoch.
// This is the parallel-writer path: one goroutine grows the track up front,
// then workers fill disjoint epochs concurrently.
func (t *QuantileTrack) Grow(n int) error {
	if n < 0 {
		return fmt.Errorf("metrics: cannot grow track by %d epochs", n)
	}
	t.grow(n)
	return nil
}

// SetEpoch overwrites epoch e's quantile summary in place. Distinct epochs
// may be written concurrently (they are disjoint rows of blocks that do not
// move); the epoch must already exist (AppendEpoch or Grow).
func (t *QuantileTrack) SetEpoch(e Epoch, summary [][3]float64) error {
	if e < 0 || int(e) >= t.NumEpochs() {
		return ErrEpochRange
	}
	if len(summary) != t.numMetrics {
		return fmt.Errorf("metrics: summary has %d metrics, track expects %d", len(summary), t.numMetrics)
	}
	t.setRow(int(e), summary)
	return nil
}

func (t *QuantileTrack) setRow(e int, summary [][3]float64) {
	row := t.row(e)
	for m, s := range summary {
		copy(row[m*NumQuantiles:], s[:])
	}
}

// ErrEpochRange is returned for out-of-range epoch accesses.
var ErrEpochRange = errors.New("metrics: epoch out of range")

// At returns the qi-th tracked quantile of metric m at epoch e.
func (t *QuantileTrack) At(e Epoch, m, qi int) (float64, error) {
	if e < 0 || int(e) >= t.NumEpochs() {
		return 0, ErrEpochRange
	}
	if m < 0 || m >= t.numMetrics || qi < 0 || qi >= NumQuantiles {
		return 0, fmt.Errorf("metrics: index (m=%d, q=%d) out of range", m, qi)
	}
	return t.row(int(e))[m*NumQuantiles+qi], nil
}

// EpochRow returns all metric quantiles for epoch e as a flat slice of
// length numMetrics*3 laid out [m0q0 m0q1 m0q2 m1q0 ...]. The returned
// slice aliases the track's storage and must not be modified.
func (t *QuantileTrack) EpochRow(e Epoch) ([]float64, error) {
	if e < 0 || int(e) >= t.NumEpochs() {
		return nil, ErrEpochRange
	}
	return t.row(int(e)), nil
}

// Aggregator turns raw per-machine metric samples for one epoch into the
// cross-machine quantile summary, using a caller-supplied estimator per
// metric (quantile.Exact in every pipeline in this tree).
//
// §3.2 summarizes each metric across machines on its own, so the metric
// column is the aggregator's one unit of parallel work: a parallel filter or
// summary splits the columns into contiguous ranges, one goroutine each
// (forEachMetric). Every estimator is fed by exactly one goroutine, in machine
// order, so the result is byte-identical for any worker count.
type Aggregator struct {
	ests []quantile.Estimator
	// scratch[w] is worker w's working memory, so concurrent workers never
	// share one; scratch[0] is the serial path's.
	scratch []*stripScratch
}

// stripScratch is one worker's memory, off the stack of the fan-out's fresh
// goroutines: ObserveBatchFiltered's state for one strip of delivered rows
// (12 KB; rows keeps the last strip's row views reachable until the next
// batch), and the selection scratch its summary lends every estimator.
type stripScratch struct {
	rows  [batchStrip][]float64 // the delivered rows being walked
	at    [batchStrip]int       // their indices in the batch
	drops [batchStrip]int       // non-finite cells per row
	col   [batchStrip]float64   // the strip's column when the batch is not kept
	// counts[i] is a parallel worker's non-finite cell count of row i over
	// its column range.
	counts []int
	sel    quantile.Scratch
}

// NewAggregator builds an aggregator with one estimator per metric produced
// by newEst (called numMetrics times).
func NewAggregator(numMetrics int, newEst func() quantile.Estimator) (*Aggregator, error) {
	if numMetrics <= 0 {
		return nil, fmt.Errorf("metrics: numMetrics %d must be positive", numMetrics)
	}
	if newEst == nil {
		return nil, errors.New("metrics: nil estimator factory")
	}
	a := &Aggregator{ests: make([]quantile.Estimator, numMetrics), scratch: []*stripScratch{new(stripScratch)}}
	for i := range a.ests {
		a.ests[i] = newEst()
	}
	return a, nil
}

// NumMetrics reports the number of metrics per sample row.
func (a *Aggregator) NumMetrics() int { return len(a.ests) }

// workerScratch makes sure workers scratches exist and returns them.
func (a *Aggregator) workerScratch(workers int) []*stripScratch {
	for len(a.scratch) < workers {
		a.scratch = append(a.scratch, new(stripScratch))
	}
	return a.scratch[:workers]
}

// forEachMetric calls fn(w, lo, hi) for each of workers (1 ≤ workers ≤
// NumMetrics) contiguous ranges [lo, hi) of the metric columns, range 0 on
// the calling goroutine and every other range on a goroutine of its own. Columns are independent, so results
// do not depend on the worker count. It returns the lowest range's error.
func (a *Aggregator) forEachMetric(workers int, fn func(w, lo, hi int) error) error {
	n := len(a.ests)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fn(w, w*n/workers, (w+1)*n/workers)
		}()
	}
	errs[0] = fn(0, 0, n/workers)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Reset clears every estimator, discarding whatever the current epoch has
// ingested so far — the recovery path after a failed ingest, so a half-built
// epoch cannot leak into the next one.
func (a *Aggregator) Reset() {
	for _, est := range a.ests {
		est.Reset()
	}
}
