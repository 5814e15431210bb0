package quantile

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// binaryRound encodes est with the compact binary codec and decodes it
// back, asserting the whole buffer is consumed.
func binaryRound(t *testing.T, est Estimator) Estimator {
	t.Helper()
	out, rest, err := DecodeBinary(encodeBytes(t, est))
	if err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("binary decode left %d bytes", len(rest))
	}
	return out
}

// encodeBytes is the byte-level fingerprint the codec properties compare:
// two estimators with identical serialized state are identical for every
// observer, queries included.
func encodeBytes(t *testing.T, est Estimator) []byte {
	t.Helper()
	data, err := AppendBinary(nil, est)
	if err != nil {
		t.Fatalf("binary encode: %v", err)
	}
	return data
}

// specialValues are the floats a lossy codec would mangle.
var specialValues = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.NaN(),
}

// TestBinaryRoundTrip: a decoded estimator is indistinguishable from the one
// encoded — same count, bit-identical answers at the tracked quantiles, and
// it re-encodes to the same bytes.
func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	feed := func(est Estimator, n int) Estimator {
		for i := 0; i < n; i++ {
			est.Insert(100 + rng.NormFloat64()*10)
		}
		return est
	}
	batch := func(est Estimator, vs ...float64) Estimator {
		est.InsertBatch(vs)
		return est
	}
	cases := map[string]Estimator{
		"exact":          feed(NewExact(), 500),
		"exact-empty":    NewExact(),
		"exact-specials": batch(NewExact(), specialValues...),
		"gk":             feed(MustGK(0.01), 5000),
		"gk-empty":       MustGK(0.01),
		"gk-reset":       func() Estimator { s := feed(MustGK(0.05), 50); s.Reset(); return s }(),
		// Without the trailing NaN, which breaks the ordering GK's own
		// Insert relies on.
		"gk-specials": batch(MustGK(0.05), specialValues[:len(specialValues)-1]...),
		// +0 then -0 is ascending for Insert but descending in bit order.
		"gk-signed-zeros": batch(batch(MustGK(0.05), 0), math.Copysign(0, -1)),
	}
	for name, est := range cases {
		want := encodeBytes(t, est)
		got := binaryRound(t, est)
		if !bytes.Equal(encodeBytes(t, got), want) {
			t.Errorf("%s: decoded state re-encodes to different bytes", name)
		}
		if got.Count() != est.Count() {
			t.Errorf("%s: count %d, want %d", name, got.Count(), est.Count())
		}
		for _, q := range TrackedQuantiles {
			ov, err1 := est.Query(q)
			bv, err2 := got.Query(q)
			if est.Count() == 0 {
				if err1 != ErrNoData || err2 != ErrNoData {
					t.Errorf("%s: empty query errs %v %v, want ErrNoData", name, err1, err2)
				}
				continue
			}
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: query errs %v %v", name, err1, err2)
			}
			if math.Float64bits(ov) != math.Float64bits(bv) {
				t.Errorf("%s q=%v: %v != %v", name, q, bv, ov)
			}
		}
	}
}

// TestBinarySpecialValues: the order-preserving bit mapping must be a
// bijection — NaN payloads, infinities and signed zeros all round-trip
// bit-exactly through the delta chain.
func TestBinarySpecialValues(t *testing.T) {
	e := NewExact()
	e.InsertBatch(specialValues)
	got := binaryRound(t, e).(*Exact)
	if len(got.vals) != len(specialValues) {
		t.Fatalf("%d values, want %d", len(got.vals), len(specialValues))
	}
	for i, v := range specialValues {
		if math.Float64bits(got.vals[i]) != math.Float64bits(v) {
			t.Errorf("value %d: %x, want %x", i, math.Float64bits(got.vals[i]), math.Float64bits(v))
		}
	}
}

// TestBinaryMergeCommute is the property the two-tier fleet pipeline rests
// on: serializing shard estimators, shipping them, and merging the decoded
// copies must equal merging the originals and serializing the result —
// codec round trips commute with Merge. Checked at the byte level (stronger
// than a query grid) across randomized stream splits.
func TestBinaryMergeCommute(t *testing.T) {
	makers := map[string]func() Estimator{
		"Exact": func() Estimator { return NewExact() },
		"GK":    func() Estimator { return MustGK(0.01) },
	}
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 5; trial++ {
				rng := rand.New(rand.NewSource(int64(100 + trial)))
				a, b := mk(), mk()
				for i := 0; i < 500; i++ {
					a.Insert(rng.NormFloat64() * 10)
					b.Insert(rng.ExpFloat64())
				}

				// Path 1: merge the live originals, then serialize.
				direct := binaryRound(t, a) // preserve a; Merge mutates the receiver
				if err := direct.(Merger).Merge(b); err != nil {
					t.Fatal(err)
				}

				// Path 2: round-trip both shards first, then merge the copies.
				shipped := binaryRound(t, a)
				if err := shipped.(Merger).Merge(binaryRound(t, b)); err != nil {
					t.Fatal(err)
				}

				if !bytes.Equal(encodeBytes(t, shipped), encodeBytes(t, direct)) {
					t.Fatalf("trial %d: roundtrip-then-merge differs from merge-then-roundtrip", trial)
				}
				if direct.Count() != a.Count()+b.Count() {
					t.Fatalf("trial %d: merged count %d, want %d", trial, direct.Count(), a.Count()+b.Count())
				}
				// The fingerprint equality must be visible to queries too.
				for _, q := range TrackedQuantiles {
					dv, err1 := direct.Query(q)
					sv, err2 := shipped.Query(q)
					if err1 != nil || err2 != nil || dv != sv {
						t.Fatalf("trial %d q=%v: direct %v (%v) vs shipped %v (%v)", trial, q, dv, err1, sv, err2)
					}
				}
			}
		})
	}
}

// TestBinaryNilAndChained: nil estimators cost one byte, and several
// estimators concatenated in one buffer decode in sequence — the layout
// fleet frames use for the explicit estimator section.
func TestBinaryNilAndChained(t *testing.T) {
	ests := []Estimator{NewExact(), nil, MustGK(0.05)}
	ests[0].Insert(1)
	ests[2].Insert(2)
	var buf []byte
	var err error
	for _, est := range ests {
		if buf, err = AppendBinary(buf, est); err != nil {
			t.Fatal(err)
		}
	}
	rest := buf
	for i, want := range ests {
		var got Estimator
		if got, rest, err = DecodeBinary(rest); err != nil {
			t.Fatalf("estimator %d: %v", i, err)
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("estimator %d: nil-ness mismatch", i)
		}
		if want != nil && got.Count() != want.Count() {
			t.Fatalf("estimator %d: count %d, want %d", i, got.Count(), want.Count())
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
}

// TestBinaryDecodeRejectsCorrupt: truncations and absurd counts must fail
// with an error, never panic or allocate unboundedly.
func TestBinaryDecodeRejectsCorrupt(t *testing.T) {
	e := NewExact()
	for i := 0; i < 100; i++ {
		e.Insert(float64(i))
	}
	data, err := AppendBinary(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 7 {
		if _, _, err := DecodeBinary(data[:cut]); err == nil && cut < len(data) {
			// Short prefixes may still parse as a smaller valid payload only
			// if the count happens to fit; a nil-tag single byte is valid.
			if cut != 1 {
				t.Errorf("truncation at %d decoded without error", cut)
			}
		}
	}
	if _, _, err := DecodeBinary([]byte{binExact, 0xff, 0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Error("absurd count accepted")
	}
	if _, _, err := DecodeBinary([]byte{99}); err == nil {
		t.Error("unknown tag accepted")
	}
}

// gkTupleWire is one GK tuple as the wire carries it, before any check.
type gkTupleWire struct {
	v        float64
	g, delta uint64
}

// gkPayload hand-assembles a GK payload, so each decode rule can be broken
// on its own.
func gkPayload(n, since uint64, tuples ...gkTupleWire) []byte {
	p := []byte{binGK}
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(0.01))
	p = binary.AppendUvarint(p, n)
	p = binary.AppendUvarint(p, since)
	p = binary.AppendUvarint(p, uint64(len(tuples)))
	prev := uint64(0)
	for _, t := range tuples {
		u := floatToOrdered(t.v)
		p = binary.AppendVarint(p, int64(u-prev))
		prev = u
		p = binary.AppendUvarint(p, t.g)
		p = binary.AppendUvarint(p, t.delta)
	}
	return p
}

// gkRejects are crafted GK payloads that each break one decode rule. Before
// the rules existed all of them decoded, and Merge then expanded every tuple
// g times (unbounded allocation) or looped on a negative g.
var gkRejects = map[string][]byte{
	"count-beyond-int32": gkPayload(1<<40, 0, gkTupleWire{1, 1 << 40, 0}),
	"g-zero":             gkPayload(1, 0, gkTupleWire{1, 0, 0}, gkTupleWire{2, 1, 0}),
	"g-negative-as-int":  gkPayload(2, 0, gkTupleWire{1, 1 << 63, 0}),
	"g-sum-below-count":  gkPayload(3, 0, gkTupleWire{1, 1, 0}, gkTupleWire{2, 1, 0}),
	"g-sum-above-count":  gkPayload(3, 0, gkTupleWire{1, 2, 0}, gkTupleWire{2, 2, 0}),
	"delta-beyond-count": gkPayload(2, 0, gkTupleWire{1, 1, 0}, gkTupleWire{2, 1, 3}),
	"tuples-descend":     gkPayload(2, 0, gkTupleWire{2, 1, 0}, gkTupleWire{1, 1, 0}),
	"compress-counter":   gkPayload(2, 3, gkTupleWire{1, 1, 0}, gkTupleWire{2, 1, 0}),
}

// TestBinaryDecodeRejectsInvalidGK: one crafted payload per rule, next to a
// well-formed one from the same builder.
func TestBinaryDecodeRejectsInvalidGK(t *testing.T) {
	ok := gkPayload(3, 1, gkTupleWire{-1e300, 1, 0}, gkTupleWire{1e300, 2, 1})
	est, rest, err := DecodeBinary(ok)
	if err != nil || len(rest) != 0 || est.Count() != 3 {
		t.Fatalf("well-formed payload: est %v, %d bytes left, err %v", est, len(rest), err)
	}
	for name, p := range gkRejects {
		if est, _, err := DecodeBinary(p); err == nil {
			t.Errorf("%s: decoded to a sketch of %d observations, want an error", name, est.Count())
		}
	}
}

// FuzzDecodeBinary: arbitrary bytes must never panic the estimator decoder,
// and whatever decodes must be usable — it answers queries, merges, and
// re-encodes to a payload that decodes to the same bytes again.
func FuzzDecodeBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 3, 5000} {
		for _, est := range []Estimator{NewExact(), MustGK(0.01)} {
			for i := 0; i < n; i++ {
				est.Insert(100 + rng.NormFloat64()*10)
			}
			data, err := AppendBinary(nil, est)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	for _, p := range gkRejects {
		f.Add(p)
	}
	f.Add([]byte{binNil})
	f.Fuzz(func(t *testing.T, data []byte) {
		est, _, err := DecodeBinary(data)
		if err != nil || est == nil {
			return
		}
		for _, q := range TrackedQuantiles {
			if _, err := est.Query(q); err != nil && est.Count() > 0 {
				t.Fatalf("decoded %T of %d observations cannot answer q=%v: %v", est, est.Count(), q, err)
			}
		}
		again, err := AppendBinary(nil, est)
		if err != nil {
			t.Fatal(err)
		}
		back, rest, err := DecodeBinary(again)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded payload does not decode: %d bytes left, err %v", len(rest), err)
		}
		if third, _ := AppendBinary(nil, back); !bytes.Equal(third, again) {
			t.Fatal("re-encoding is not a fixed point")
		}
		// GK.Merge expands every tuple to its coverage, so only merge
		// sketches of a size the fuzzer can afford.
		if est.Count() <= 1<<16 {
			if err := back.(Merger).Merge(est); err != nil {
				t.Fatal(err)
			}
			if back.Count() != 2*est.Count() {
				t.Fatalf("merged count %d, want %d", back.Count(), 2*est.Count())
			}
		}
	})
}
