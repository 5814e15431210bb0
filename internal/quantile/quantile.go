// Package quantile provides quantile estimators for summarizing a
// performance metric across all machines of a datacenter (§3.2 of the
// paper).
//
// The paper tracks three quantiles per metric (25th, 50th, 95th) and notes
// that while their several-hundred-machine installation allowed exact
// computation, bounded-error streaming estimators [Guha & McGregor] let the
// approach scale to installations of thousands of machines. This package
// offers both:
//
//   - Exact: collects all observations, answers exactly.
//   - GK: the Greenwald–Khanna ε-approximate streaming sketch whose memory
//     is O((1/ε)·log(εn)) regardless of the number of machines.
package quantile

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// TrackedQuantiles are the per-metric quantiles the paper's fingerprints
// track: 25th percentile, median, and 95th percentile.
var TrackedQuantiles = []float64{0.25, 0.50, 0.95}

// ErrNoData is returned when querying an estimator that has seen no values.
var ErrNoData = errors.New("quantile: no observations")

// Estimator summarizes a stream of observations and answers quantile
// queries with q in [0, 1].
type Estimator interface {
	// Insert adds one observation.
	Insert(v float64)
	// InsertBatch adds a batch of observations, equivalent to calling
	// Insert on each value in order: byte-identical for Exact (only the
	// value multiset matters), within the error bound for GK (which may
	// schedule compression differently across the batch). The batch slice
	// is not retained.
	InsertBatch(vs []float64)
	// Query returns an estimate of the q-th quantile of everything
	// inserted so far.
	Query(q float64) (float64, error)
	// Count reports how many observations have been inserted.
	Count() int
	// Reset discards all state so the estimator can be reused for the
	// next aggregation epoch.
	Reset()
}

// Merger is the optional capability of an Estimator to absorb the state of
// a sibling estimator — the primitive behind sharded cross-machine
// aggregation, where each worker feeds its own estimator and the shards are
// merged before the epoch's quantiles are read. Merging an Exact into an
// Exact is lossless (the union multiset is preserved, so queries are
// byte-identical to single-stream insertion in any shard order); GK merges
// by weighted re-insertion, which keeps estimates valid but not
// bit-reproducible across different shard counts.
type Merger interface {
	// Merge absorbs src's observations into the receiver. src is left
	// unmodified; callers typically Reset it afterwards.
	Merge(src Estimator) error
}

// Exact is an Estimator that stores every observation and answers queries
// exactly (linear-interpolation quantiles). Suitable for hundreds of
// machines per epoch, as in the paper's case study.
type Exact struct {
	vals   []float64
	sorted bool
	// keys and keyTmp are radix-sort scratch (see sortVals), retained so a
	// reused estimator sorts without allocating.
	keys   []uint64
	keyTmp []uint64
}

// radixMinLen is the value count above which sortVals switches from the
// comparison sort to the LSD radix sort. Below it the O(n log n) sort's
// lower constant wins; above it the radix sort's 8 linear passes do.
const radixMinLen = 256

// sortVals sorts the observations ascending. Large sets take an LSD radix
// sort over the order-preserving bit mapping (floatToOrdered): one pass
// builds all eight digit histograms, then up to eight stable counting-sort
// passes — skipping any digit all keys share, which for metric columns
// clustered around a common level is most of the high bytes. The result is
// identical to sort.Float64s for finite values; a batch containing NaN
// falls back to the comparison sort so NaN placement matches exactly.
func (e *Exact) sortVals() {
	if e.sorted {
		return
	}
	e.sorted = true
	n := len(e.vals)
	if n < radixMinLen {
		sort.Float64s(e.vals)
		return
	}
	if cap(e.keys) < n {
		e.keys = make([]uint64, n)
		e.keyTmp = make([]uint64, n)
	}
	keys := e.keys[:n]
	for i, v := range e.vals {
		if v != v {
			sort.Float64s(e.vals)
			return
		}
		keys[i] = floatToOrdered(v)
	}
	var counts [8][256]int
	for _, k := range keys {
		counts[0][k&0xff]++
		counts[1][(k>>8)&0xff]++
		counts[2][(k>>16)&0xff]++
		counts[3][(k>>24)&0xff]++
		counts[4][(k>>32)&0xff]++
		counts[5][(k>>40)&0xff]++
		counts[6][(k>>48)&0xff]++
		counts[7][(k>>56)&0xff]++
	}
	first := keys[0]
	src, dst := keys, e.keyTmp[:n]
	for d := uint(0); d < 8; d++ {
		c := &counts[d]
		if c[(first>>(8*d))&0xff] == n {
			continue // every key shares this digit; the pass is a no-op
		}
		sum := 0
		for b := 0; b < 256; b++ {
			cnt := c[b]
			c[b] = sum
			sum += cnt
		}
		for _, k := range src {
			b := (k >> (8 * d)) & 0xff
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	for i, k := range src {
		e.vals[i] = orderedToFloat(k)
	}
}

// NewExact returns an empty exact estimator.
func NewExact() *Exact { return &Exact{} }

// Insert adds one observation.
func (e *Exact) Insert(v float64) {
	e.vals = append(e.vals, v)
	e.sorted = false
}

// InsertBatch bulk-appends the batch; sorting is deferred to the next
// query, so ingesting a whole metric column costs one copy instead of one
// call per cell.
func (e *Exact) InsertBatch(vs []float64) {
	if len(vs) == 0 {
		return
	}
	e.vals = append(e.vals, vs...)
	e.sorted = false
}

// Query returns the exact q-th quantile.
func (e *Exact) Query(q float64) (float64, error) {
	if len(e.vals) == 0 {
		return 0, ErrNoData
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("quantile: q=%v out of [0,1]", q)
	}
	e.sortVals()
	n := len(e.vals)
	if n == 1 {
		return e.vals[0], nil
	}
	r := q * float64(n-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	if lo == hi {
		return e.vals[lo], nil
	}
	frac := r - float64(lo)
	return e.vals[lo]*(1-frac) + e.vals[hi]*frac, nil
}

// Count reports the number of observations.
func (e *Exact) Count() int { return len(e.vals) }

// Reset discards all observations, retaining capacity.
func (e *Exact) Reset() {
	e.vals = e.vals[:0]
	e.sorted = false
}

// Merge absorbs another exact estimator's observations. The result is
// indistinguishable from having inserted both streams into one estimator,
// so sharded exact aggregation is deterministic regardless of how the
// stream was split.
func (e *Exact) Merge(src Estimator) error {
	o, ok := src.(*Exact)
	if !ok {
		return fmt.Errorf("quantile: cannot merge %T into *Exact", src)
	}
	if len(o.vals) == 0 {
		return nil
	}
	e.vals = append(e.vals, o.vals...)
	e.sorted = false
	return nil
}

// Values returns the observations sorted ascending. The returned slice is
// owned by the estimator and must not be modified.
func (e *Exact) Values() []float64 {
	e.sortVals()
	return e.vals
}

// RawValues returns the observations without sorting them first (unlike
// Values, which sorts in place): insertion order is preserved as long as no
// query has run. The slice aliases the estimator's storage — read-only, and
// valid only until the next mutating call. Wire codecs use it to compare
// estimator content against the raw rows it was ingested from.
func (e *Exact) RawValues() []float64 { return e.vals }

// Summarize inserts nothing and reads the TrackedQuantiles (25/50/95) out of
// est in order. It is the one-line helper the metric store uses per epoch.
func Summarize(est Estimator) ([3]float64, error) {
	var out [3]float64
	for i, q := range TrackedQuantiles {
		v, err := est.Query(q)
		if err != nil {
			return out, err
		}
		out[i] = v
	}
	return out, nil
}
