package quantile

import (
	"fmt"
	"math"
	"sort"
)

// GK is the Greenwald–Khanna ε-approximate quantile sketch.
//
// After n insertions, Query(q) returns a value whose rank is within ε·n of
// the true rank ⌈q·n⌉, using O((1/ε)·log(εn)) stored tuples. This is the
// bounded-error streaming summarization the paper points to for scaling the
// per-metric datacenter summary beyond the point where exact computation is
// convenient (§3.2).
type GK struct {
	eps    float64
	n      int
	tuples []gkTuple // sorted ascending by v
	// compressEvery counts down insertions until the next compression.
	sinceCompress int
	// sortBuf and mergeBuf are batch-ingestion scratch, retained across
	// calls so steady-state batches allocate nothing.
	sortBuf  []float64
	mergeBuf []gkTuple
}

// gkTuple is one summary entry: value v covers g observations, and delta
// bounds the uncertainty of its maximum rank.
type gkTuple struct {
	v     float64
	g     int
	delta int
}

// NewGK returns a sketch with rank-error guarantee eps in (0, 1).
func NewGK(eps float64) (*GK, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("quantile: eps=%v out of (0,1)", eps)
	}
	return &GK{eps: eps}, nil
}

// MustGK is NewGK for statically-valid eps; it panics on error.
func MustGK(eps float64) *GK {
	s, err := NewGK(eps)
	if err != nil {
		panic(err)
	}
	return s
}

// Insert adds one observation to the sketch.
func (s *GK) Insert(v float64) {
	i := sort.Search(len(s.tuples), func(j int) bool { return s.tuples[j].v > v })
	delta := 0
	if i > 0 && i < len(s.tuples) {
		delta = int(math.Floor(2 * s.eps * float64(s.n)))
	}
	s.tuples = append(s.tuples, gkTuple{})
	copy(s.tuples[i+1:], s.tuples[i:])
	s.tuples[i] = gkTuple{v: v, g: 1, delta: delta}
	s.n++

	s.sinceCompress++
	if float64(s.sinceCompress) >= 1/(2*s.eps) {
		s.compress()
		s.sinceCompress = 0
	}
}

// InsertBatch sorts the batch into scratch and merges it in one pass. The
// per-value path compresses every 1/(2ε) insertions; the batch path runs
// at most one compression per batch instead, which is always safe — each
// value's delta is fixed from the stream length at its insertion point, and
// the ε·n budget only grows — so deferring compression trades transient
// memory for time without touching the error guarantee.
func (s *GK) InsertBatch(vs []float64) {
	if len(vs) == 0 {
		return
	}
	s.sortBuf = append(s.sortBuf[:0], vs...)
	sort.Float64s(s.sortBuf)
	s.insertSorted(s.sortBuf)
}

// insertSorted merges an ascending batch into the tuple list in a single
// linear pass, assigning each value the same delta the per-value Insert
// would at that point of the stream, then schedules at most one compression
// for the whole batch.
func (s *GK) insertSorted(vs []float64) {
	if cap(s.mergeBuf) < len(s.tuples)+len(vs) {
		s.mergeBuf = make([]gkTuple, 0, len(s.tuples)+len(vs))
	}
	out := s.mergeBuf[:0]
	bi := 0
	for _, t := range s.tuples {
		// Insert places a value after any equal tuples (sort.Search for the
		// first strictly-greater tuple), so only strictly smaller batch
		// values go before t.
		for bi < len(vs) && vs[bi] < t.v {
			delta := 0
			if len(out) > 0 { // not the new minimum
				delta = int(math.Floor(2 * s.eps * float64(s.n)))
			}
			out = append(out, gkTuple{v: vs[bi], g: 1, delta: delta})
			s.n++
			bi++
		}
		out = append(out, t)
	}
	for bi < len(vs) {
		// At or past the current maximum: delta 0, anchoring the new max.
		out = append(out, gkTuple{v: vs[bi], g: 1, delta: 0})
		s.n++
		bi++
	}
	// Swap the merge scratch in as the live tuple list and retain the old
	// backing array for the next batch.
	s.tuples, s.mergeBuf = out, s.tuples[:0]

	s.sinceCompress += len(vs)
	if float64(s.sinceCompress) >= 1/(2*s.eps) {
		s.compress()
		s.sinceCompress = 0
	}
}

// compress merges adjacent tuples whose combined span still satisfies the
// ε·n error budget, bounding memory.
func (s *GK) compress() {
	if len(s.tuples) < 3 {
		return
	}
	budget := int(math.Floor(2 * s.eps * float64(s.n)))
	// Never merge away the first tuple (it anchors the minimum); iterate
	// from the tail so index arithmetic stays simple under deletion.
	for i := len(s.tuples) - 2; i >= 1; i-- {
		t, next := s.tuples[i], s.tuples[i+1]
		if t.g+next.g+next.delta <= budget {
			s.tuples[i+1].g += t.g
			s.tuples = append(s.tuples[:i], s.tuples[i+1:]...)
		}
	}
}

// Query returns an ε-approximate q-th quantile of the inserted stream.
func (s *GK) Query(q float64) (float64, error) {
	if s.n == 0 {
		return 0, ErrNoData
	}
	if !(q >= 0 && q <= 1) { // NaN compares false both ways
		return 0, fmt.Errorf("quantile: q=%v out of [0,1]", q)
	}
	rank := int(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	margin := int(math.Ceil(s.eps * float64(s.n)))
	rmin := 0
	for i, t := range s.tuples {
		rmin += t.g
		rmax := rmin + t.delta
		if rank-rmin <= margin && rmax-rank <= margin {
			return t.v, nil
		}
		_ = i
	}
	return s.tuples[len(s.tuples)-1].v, nil
}

// Merge absorbs another GK sketch by re-inserting its tuples weighted by
// their coverage g. The merged sketch remains a valid ε'-summary with
// ε' ≤ εa+εb; unlike Exact.Merge the result is not bit-identical across
// different shardings, so sharded aggregation over GK trades exactness for
// memory just like the underlying sketch does.
func (s *GK) Merge(src Estimator) error {
	o, ok := src.(*GK)
	if !ok {
		return fmt.Errorf("quantile: cannot merge %T into *GK", src)
	}
	if len(o.tuples) == 0 {
		return nil
	}
	// The source tuples are sorted ascending, so their g-weighted expansion
	// is a ready-made sorted batch: one merge pass instead of one
	// tuple-insertion per covered observation.
	buf := s.sortBuf[:0]
	for _, t := range o.tuples {
		for i := 0; i < t.g; i++ {
			buf = append(buf, t.v)
		}
	}
	s.sortBuf = buf
	s.insertSorted(buf)
	return nil
}

// Count reports the number of observations inserted.
func (s *GK) Count() int { return s.n }

// Reset discards all state.
func (s *GK) Reset() {
	s.n = 0
	s.tuples = s.tuples[:0]
	s.sinceCompress = 0
}

// TupleCount exposes the sketch size for memory-scaling benchmarks.
func (s *GK) TupleCount() int { return len(s.tuples) }

// Epsilon returns the configured rank-error guarantee.
func (s *GK) Epsilon() float64 { return s.eps }

var _ Estimator = (*GK)(nil)
var _ Estimator = (*Exact)(nil)
var _ Merger = (*GK)(nil)
var _ Merger = (*Exact)(nil)
