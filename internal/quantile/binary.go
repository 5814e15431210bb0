package quantile

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Compact binary codec for the estimators — the payload format behind the
// explicit estimator section of fleet frames (internal/fleet). It spends
// one tag byte per estimator, varints for every count, and delta-chains
// float values: each value's bits are mapped to an order-preserving uint64
// and encoded as the zigzag-varint difference from its predecessor. A
// metric column clusters tightly around its level, so consecutive deltas
// are small integers and typical values cost 5-7 bytes instead of 8 — fully
// lossless (the bit mapping is a bijection, so NaN, ±Inf and -0 round-trip
// exactly) and order-preserving, so a decoded estimator re-encodes to the
// same bytes.

// Type tags. Tag 0 marks a nil estimator slot; tags 3 and 4 belonged to
// estimators that no longer exist and stay reserved (decoding rejects them
// as unknown).
const (
	binNil   = 0
	binExact = 1
	binGK    = 2
)

// floatToOrdered maps float64 bits to a uint64 whose unsigned order matches
// the float order (negatives below positives, -0 below +0). A bijection, so
// the inverse recovers the exact bit pattern.
func floatToOrdered(v float64) uint64 {
	u := math.Float64bits(v)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

func orderedToFloat(u uint64) float64 {
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

// appendFloats delta-chains vs onto dst starting from a zero predecessor.
func appendFloats(dst []byte, vs []float64) []byte {
	prev := uint64(0)
	for _, v := range vs {
		u := floatToOrdered(v)
		dst = binary.AppendVarint(dst, int64(u-prev))
		prev = u
	}
	return dst
}

// binReader walks a binary estimator payload with bounds checking.
type binReader struct {
	data []byte
}

func (r *binReader) byte() (byte, error) {
	if len(r.data) < 1 {
		return 0, fmt.Errorf("quantile: binary payload truncated")
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b, nil
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		return 0, fmt.Errorf("quantile: bad uvarint in binary payload")
	}
	r.data = r.data[n:]
	return v, nil
}

func (r *binReader) varint() (int64, error) {
	v, n := binary.Varint(r.data)
	if n <= 0 {
		return 0, fmt.Errorf("quantile: bad varint in binary payload")
	}
	r.data = r.data[n:]
	return v, nil
}

// count reads a length prefix and rejects values that could not possibly
// fit in the remaining payload (every element costs at least one byte), so
// corrupted or adversarial input cannot trigger huge allocations.
func (r *binReader) count(what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.data)) {
		return 0, fmt.Errorf("quantile: %s count %d exceeds remaining payload %d", what, v, len(r.data))
	}
	return int(v), nil
}

func (r *binReader) floats(n int) ([]float64, error) {
	if n == 0 {
		return nil, nil
	}
	out := make([]float64, n)
	prev := uint64(0)
	for i := range out {
		d, err := r.varint()
		if err != nil {
			return nil, err
		}
		prev += uint64(d)
		out[i] = orderedToFloat(prev)
	}
	return out, nil
}

// AppendBinary appends est's state to dst and returns the extended slice.
// A nil estimator encodes as a one-byte tombstone. The estimator is read
// but not mutated.
func AppendBinary(dst []byte, est Estimator) ([]byte, error) {
	switch e := est.(type) {
	case nil:
		return append(dst, binNil), nil
	case *Exact:
		dst = append(dst, binExact)
		dst = binary.AppendUvarint(dst, uint64(len(e.vals)))
		return appendFloats(dst, e.vals), nil
	case *GK:
		dst = append(dst, binGK)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.eps))
		dst = binary.AppendUvarint(dst, uint64(e.n))
		dst = binary.AppendUvarint(dst, uint64(e.sinceCompress))
		dst = binary.AppendUvarint(dst, uint64(len(e.tuples)))
		prev := uint64(0)
		for _, t := range e.tuples {
			u := floatToOrdered(t.v)
			dst = binary.AppendVarint(dst, int64(u-prev))
			prev = u
			dst = binary.AppendUvarint(dst, uint64(t.g))
			dst = binary.AppendUvarint(dst, uint64(t.delta))
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("quantile: no binary codec for %T", est)
	}
}

// DecodeBinary decodes one estimator from the front of data, returning it
// (nil for a tombstone) and the unconsumed remainder. The decoded estimator
// answers queries identically to the encoded one.
func DecodeBinary(data []byte) (Estimator, []byte, error) {
	r := &binReader{data: data}
	tag, err := r.byte()
	if err != nil {
		return nil, nil, err
	}
	switch tag {
	case binNil:
		return nil, r.data, nil
	case binExact:
		n, err := r.count("exact value")
		if err != nil {
			return nil, nil, err
		}
		vals, err := r.floats(n)
		if err != nil {
			return nil, nil, err
		}
		e := &Exact{vals: vals}
		return e, r.data, nil
	case binGK:
		s, err := r.gk()
		if err != nil {
			return nil, nil, err
		}
		return s, r.data, nil
	default:
		return nil, nil, fmt.Errorf("quantile: unknown binary estimator tag %d", tag)
	}
}

// gk reads a GK sketch body and checks the invariants Query and Merge rely
// on, so a crafted payload cannot hand them negative or absurd coverage
// counts (Merge expands every tuple g times).
func (r *binReader) gk() (*GK, error) {
	epsBits, err := r.fixed64()
	if err != nil {
		return nil, err
	}
	eps := math.Float64frombits(epsBits)
	if !(eps > 0 && eps < 1) {
		return nil, fmt.Errorf("quantile: decoded GK eps=%v out of (0,1)", eps)
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("quantile: decoded GK count %d out of range", n)
	}
	since, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if since > n {
		return nil, fmt.Errorf("quantile: decoded GK compress counter %d exceeds count %d", since, n)
	}
	nt, err := r.count("GK tuple")
	if err != nil {
		return nil, err
	}
	s := &GK{eps: eps, n: int(n), sinceCompress: int(since)}
	s.tuples = make([]gkTuple, 0, nt)
	prev, covered := uint64(0), uint64(0)
	for i := 0; i < nt; i++ {
		d, err := r.varint()
		if err != nil {
			return nil, err
		}
		prev += uint64(d)
		v := orderedToFloat(prev)
		// Float order, not bit order: +0 followed by -0 is ascending, and the
		// delta between far-apart values legitimately wraps negative.
		if i > 0 && v < s.tuples[i-1].v {
			return nil, fmt.Errorf("quantile: decoded GK tuple %d descends (%v after %v)", i, v, s.tuples[i-1].v)
		}
		g, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if g < 1 || g > n {
			return nil, fmt.Errorf("quantile: decoded GK tuple %d covers %d of %d observations", i, g, n)
		}
		delta, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if delta > n {
			return nil, fmt.Errorf("quantile: decoded GK tuple %d delta %d exceeds count %d", i, delta, n)
		}
		covered += g
		s.tuples = append(s.tuples, gkTuple{v: v, g: int(g), delta: int(delta)})
	}
	if covered != n {
		return nil, fmt.Errorf("quantile: decoded GK tuples cover %d observations, count says %d", covered, n)
	}
	return s, nil
}

// fixed64 reads a raw little-endian 64-bit word (used for float fields
// that must round-trip bit-exactly without delta context).
func (r *binReader) fixed64() (uint64, error) {
	if len(r.data) < 8 {
		return 0, fmt.Errorf("quantile: binary payload truncated")
	}
	v := binary.LittleEndian.Uint64(r.data)
	r.data = r.data[8:]
	return v, nil
}
