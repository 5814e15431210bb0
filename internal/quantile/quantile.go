// Package quantile provides the quantile estimator that summarizes a
// performance metric across all machines of a datacenter (§3.2 of the
// paper).
//
// The paper tracks three quantiles per metric (25th, 50th, 95th) and notes
// that while their several-hundred-machine installation allowed exact
// computation, bounded-error streaming estimators [Guha & McGregor] would let
// the approach scale further. Exact — collect all observations, answer
// exactly — is the one estimator here: a Greenwald–Khanna sketch measured
// 1.7–65× slower at every fleet size from 100 to 100 000 machines and every
// ε while every row still ships (DESIGN.md, §3.2 row).
package quantile

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// TrackedQuantiles are the per-metric quantiles the paper's fingerprints
// track: 25th percentile, median, and 95th percentile.
var TrackedQuantiles = []float64{0.25, 0.50, 0.95}

// ErrNoData is returned when querying an estimator that has seen no values.
var ErrNoData = errors.New("quantile: no observations")

// Estimator summarizes a stream of observations and answers quantile
// queries with q in [0, 1]. Exact is its one implementation; the interface
// (and metrics.NewAggregator's factory parameter) stays because
// bench/replay.go spells both and a monitor test substitutes a guard through
// them.
type Estimator interface {
	// Insert adds one observation.
	Insert(v float64)
	// InsertBatch adds a batch of observations, equivalent to calling
	// Insert on each value in order. The batch slice is not retained.
	InsertBatch(vs []float64)
	// GatherFinite copies column m down strip into dst (len(strip)
	// entries, every cell, finite or not: dst[i] = strip[i][m]), adds its
	// finite values in row order, and counts each row's non-finite cell
	// (NaN, ±Inf) in drops[i] instead; it returns how many it counted. It is
	// the batch filter's one call per (metric, strip of rows).
	GatherFinite(strip [][]float64, m int, drops []int, dst []float64) int
	// InsertFiniteColumn adds the finite values of col in order, copies
	// col into dst (len(col) entries) and returns how many non-finite cells
	// it skipped: a metric column's one pass from wire to retained epoch.
	InsertFiniteColumn(col, dst []float64) int
	// Query returns an estimate of the q-th quantile of everything
	// inserted so far.
	Query(q float64) (float64, error)
	// Count reports how many observations have been inserted.
	Count() int
	// Reset discards all state so the estimator can be reused for the
	// next aggregation epoch.
	Reset()
}

// Exact is an Estimator that stores every observation and answers queries
// exactly (linear-interpolation quantiles). Suitable for hundreds of
// machines per epoch, as in the paper's case study. The zero value is an
// empty estimator.
//
// Observations are stored as floatToOrdered keys, converted once on insert,
// in insertion order. A query does not sort or convert: it selects the order
// statistics it interpolates between (selectKeys) straight from the keys, in
// float order with -0 below +0. Only Values, and a query over a NaN, sort a
// decoded copy with sort.Float64s: NaN first, -0 against +0 left to its
// tie-break. (Every query of a column under 256 values once took that sort;
// a quantile landing on a zero of one that mixes both signs may differ from
// then in its sign bit, then unspecified.)
type Exact struct {
	keys []uint64
	// or and orNot are the OR of every key and of every key's complement, so
	// or&orNot holds exactly the bits on which two keys differ; nans counts
	// the NaN observations, which send a query to the sort.
	or, orNot uint64
	nans      int
	// sel is the selection scratch of a query not lent one (SummarizeWith);
	// vals is what Values and RawValues decode into.
	sel  Scratch
	vals []float64
}

// Scratch is a selection's working memory, two gather targets one key longer
// than the column, whose contents never reach a result. One lent to many
// estimators grows with the largest column, not with their number.
type Scratch struct{ dst, spare []uint64 }

// selectSmall is the key count from which selectKeys sorts what is left.
const selectSmall = 48

// maxRanks bounds the ranks of one selection: two per tracked quantile.
const maxRanks = 6

// selectStats writes the ranks[i]-th smallest observation (0-based) into
// out[i] by rank selection over the stored keys. It reports false when the
// caller must sort instead: a NaN among the observations, or ranks not ascending.
func (e *Exact) selectStats(ranks []int, out []float64, sc *Scratch) bool {
	if e.nans > 0 || !sort.IntsAreSorted(ranks) {
		return false
	}
	if n := len(e.keys); len(sc.dst) <= n {
		sc.dst = make([]uint64, n+1)
		sc.spare = make([]uint64, n+1)
	}
	var sel [maxRanks]uint64
	selectKeys(e.keys, sc.dst, sc.spare, e.or&e.orNot, 0, ranks, sel[:len(ranks)])
	for i := range ranks {
		out[i] = orderedToFloat(sel[i])
	}
	return true
}

// floatToOrdered maps float64 bits to a uint64 whose unsigned order matches
// the float order (negatives below positives, -0 below +0): a negative's bits
// are all flipped, a positive's sign bit is set, without a branch. A
// bijection, so the inverse recovers the exact bit pattern.
func floatToOrdered(v float64) uint64 {
	u := math.Float64bits(v)
	return u ^ (uint64(int64(u)>>63) | 1<<63)
}

func orderedToFloat(u uint64) float64 {
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

// selectKeys writes into out[i] the key of rank ranks[i]-base among keys
// (ranks ascending, each in [base, base+len(keys))). diff holds the bits on
// which two keys differ. One 256-bucket histogram over the top 8 of them
// finds the buckets that hold a wanted rank, one gather pass copies only
// those into dst, and each is finished on its lower bits: two linear passes
// over keys plus work on the few keys around each rank. keys is only read;
// dst and spare, each longer than keys, are clobbered. A gathered bucket is
// finished from dst into spare with itself as the next level's spare: it has
// fewer keys than its parent, whose region it overwrites.
func selectKeys(keys, dst, spare []uint64, diff uint64, base int, ranks []int, out []uint64) {
	n := len(keys)
	if diff == 0 {
		for i := range ranks {
			out[i] = keys[0]
		}
		return
	}
	if n <= selectSmall {
		s := dst[:n]
		copy(s, keys)
		slices.Sort(s)
		for i, r := range ranks {
			out[i] = s[r-base]
		}
		return
	}
	shift := uint(max(bits.Len64(diff)-8, 0))
	var count [256]int
	for _, k := range keys {
		count[(k>>shift)&0xff]++
	}
	// count[b] becomes bucket b's write cursor in dst and step[b] whether it
	// advances: a bucket that holds no rank writes every key to the dump
	// slot dst[n] and stays there, so the gather does not branch.
	var step [256]int
	type bucket struct{ base, off, n, r0, r1 int }
	var want [maxRanks]bucket
	nw, fill, ri, cum := 0, 0, 0, base
	for b, c := range count {
		count[b] = n
		if ri < len(ranks) && ranks[ri] < cum+c {
			r0 := ri
			for ri < len(ranks) && ranks[ri] < cum+c {
				ri++
			}
			want[nw] = bucket{base: cum, off: fill, n: c, r0: r0, r1: ri}
			nw++
			count[b], step[b] = fill, 1
			fill += c
		}
		cum += c
	}
	dst = dst[:n+1]
	for _, k := range keys {
		b := (k >> shift) & 0xff
		p := count[b]
		dst[p] = k
		count[b] = p + step[b]
	}
	for _, w := range want[:nw] {
		sub := dst[w.off : w.off+w.n]
		d := uint64(0)
		for _, k := range sub {
			d |= k ^ sub[0]
		}
		selectKeys(sub, spare, sub, d, w.base, ranks[w.r0:w.r1], out[w.r0:w.r1])
	}
}

// NewExact returns an empty exact estimator.
func NewExact() *Exact { return &Exact{} }

// Insert adds one observation.
func (e *Exact) Insert(v float64) {
	k := floatToOrdered(v)
	e.keys = append(e.keys, k)
	e.or |= k
	e.orNot |= ^k
	if v != v {
		e.nans++
	}
}

// InsertBatch bulk-appends the batch: one call instead of one per value,
// with the accumulators folded in registers (a loop over Insert measured
// ~35 % slower on BenchmarkSummarizeExact/n2000, 2-vCPU Xeon); all ordering
// work waits for the query.
func (e *Exact) InsertBatch(vs []float64) {
	n := len(e.keys)
	e.keys = slices.Grow(e.keys, len(vs))[:n+len(vs)]
	keys := e.keys[n:]
	or, orNot := e.or, e.orNot
	for i, v := range vs {
		k := floatToOrdered(v)
		keys[i] = k
		or |= k
		orNot |= ^k
		if v != v {
			e.nans++
		}
	}
	e.or, e.orNot = or, orNot
}

// GatherFinite is the batch filter's kernel. It gathers the strip's column
// into dst first and filters dst: a tight gather loop keeps more of dst's
// cache misses in flight than one store inside the filter loop would (dst is
// a retained slab, usually cold), and the filter then reads dst from L1. The
// keys of the finite cells go straight into the estimator, with both
// accumulators folded in registers; the test is on the bits the key is made
// from: NaN and ±Inf are the values whose 11 exponent bits are all set.
func (e *Exact) GatherFinite(strip [][]float64, m int, drops []int, dst []float64) int {
	dst = dst[:len(strip)]
	for i, row := range strip {
		dst[i] = row[m]
	}
	n := len(e.keys)
	e.keys = slices.Grow(e.keys, len(dst))
	keys := e.keys[n : n+len(dst)]
	drops = drops[:len(dst)]
	or, orNot, j := e.or, e.orNot, 0
	for i, v := range dst {
		if math.Float64bits(v)<<1 >= 0x7ff<<53 {
			drops[i]++
			continue
		}
		k := floatToOrdered(v)
		keys[j] = k
		or |= k
		orNot |= ^k
		j++
	}
	e.keys = e.keys[:n+j]
	e.or, e.orNot = or, orNot
	return len(dst) - j
}

// InsertFiniteColumn is GatherFinite over one contiguous column: the
// coordinator's kernel, reading a shard's column once and writing the
// retained copy as it goes.
func (e *Exact) InsertFiniteColumn(col, dst []float64) int {
	n := len(e.keys)
	e.keys = slices.Grow(e.keys, len(col))
	keys := e.keys[n : n+len(col)]
	dst = dst[:len(col)]
	or, orNot, j := e.or, e.orNot, 0
	for i, v := range col {
		dst[i] = v
		if math.Float64bits(v)<<1 >= 0x7ff<<53 {
			continue
		}
		k := floatToOrdered(v)
		keys[j] = k
		or |= k
		orNot |= ^k
		j++
	}
	e.keys = e.keys[:n+j]
	e.or, e.orNot = or, orNot
	return len(col) - j
}

// Query returns the exact q-th quantile.
func (e *Exact) Query(q float64) (float64, error) {
	var out [1]float64
	err := e.query([]float64{q}, out[:], &e.sel)
	return out[0], err
}

// QueryInto writes the exact qs[i]-th quantile into out[i] for up to three
// quantiles, from one selection; each value is the one Query returns.
func (e *Exact) QueryInto(qs, out []float64) error {
	if len(qs) > maxRanks/2 || len(out) < len(qs) {
		return fmt.Errorf("quantile: %d quantiles into %d slots, want at most %d", len(qs), len(out), maxRanks/2)
	}
	return e.query(qs, out, &e.sel)
}

// query answers up to maxRanks/2 quantiles with one selection in sc.
func (e *Exact) query(qs, out []float64, sc *Scratch) error {
	n := len(e.keys)
	if n == 0 {
		return ErrNoData
	}
	var rankBuf [maxRanks]int
	var statBuf [maxRanks]float64
	ranks, stats := rankBuf[:2*len(qs)], statBuf[:2*len(qs)]
	for i, q := range qs {
		if !(q >= 0 && q <= 1) { // NaN compares false both ways
			return fmt.Errorf("quantile: q=%v out of [0,1]", q)
		}
		r := q * float64(n-1)
		ranks[2*i] = int(math.Floor(r))
		ranks[2*i+1] = int(math.Ceil(r))
	}
	if !e.selectStats(ranks, stats, sc) {
		sorted := e.Values()
		for i, r := range ranks {
			stats[i] = sorted[r]
		}
	}
	for i, q := range qs {
		lo, hi := ranks[2*i], ranks[2*i+1]
		if lo == hi {
			out[i] = stats[2*i]
			continue
		}
		r := q * float64(n-1)
		frac := r - float64(lo)
		out[i] = stats[2*i]*(1-frac) + stats[2*i+1]*frac
	}
	return nil
}

// Count reports the number of observations.
func (e *Exact) Count() int { return len(e.keys) }

// Reset discards all observations, retaining capacity.
func (e *Exact) Reset() {
	e.keys = e.keys[:0]
	e.or, e.orNot, e.nans = 0, 0, 0
}

// Values returns the observations sorted ascending. The slice is the
// estimator's decode scratch: read-only, and valid until the next call of
// Values or RawValues, or a query over a NaN (which sorts through Values).
func (e *Exact) Values() []float64 {
	vs := e.RawValues()
	sort.Float64s(vs)
	return vs
}

// RawValues returns the observations in insertion order, which nothing
// reorders — not Values, not a query. The slice is the same decode scratch
// as Values'. Tests use it to hold the batch filter to the per-cell
// insertion order.
func (e *Exact) RawValues() []float64 {
	e.vals = slices.Grow(e.vals[:0], len(e.keys))[:len(e.keys)]
	for i, k := range e.keys {
		e.vals[i] = orderedToFloat(k)
	}
	return e.vals
}

// Summarize inserts nothing and reads the TrackedQuantiles (25/50/95) out of
// est in order; an Exact answers all three from one selection, in its own
// scratch.
func Summarize(est Estimator) ([3]float64, error) { return SummarizeWith(est, nil) }

// SummarizeWith is Summarize with the selection in sc, which the caller
// lends and must not share with a concurrent query; nil means the
// estimator's own. It is the metric store's per-epoch read: one scratch per
// summarizing goroutine serves every metric.
func SummarizeWith(est Estimator, sc *Scratch) ([3]float64, error) {
	var out [3]float64
	if e, ok := est.(*Exact); ok {
		if sc == nil {
			sc = &e.sel
		}
		err := e.query(TrackedQuantiles, out[:], sc)
		return out, err
	}
	for i, q := range TrackedQuantiles {
		v, err := est.Query(q)
		if err != nil {
			return out, err
		}
		out[i] = v
	}
	return out, nil
}
