package quantile

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// batchStreams are the value shapes the batch-ingestion property tests run
// over: clustered (the metric-column steady state), uniform, sorted,
// reversed, with duplicates, and tiny.
func batchStreams(rng *rand.Rand) map[string][]float64 {
	clustered := make([]float64, 3000)
	for i := range clustered {
		clustered[i] = 100 + rng.NormFloat64()*10
	}
	uniform := make([]float64, 2500)
	for i := range uniform {
		uniform[i] = rng.Float64() * 1e6
	}
	sorted := make([]float64, 2000)
	for i := range sorted {
		sorted[i] = float64(i) * 0.5
	}
	reversed := make([]float64, 2000)
	for i := range reversed {
		reversed[i] = float64(len(reversed) - i)
	}
	dups := make([]float64, 1500)
	for i := range dups {
		dups[i] = float64(rng.Intn(7))
	}
	return map[string][]float64{
		"clustered": clustered,
		"uniform":   uniform,
		"sorted":    sorted,
		"reversed":  reversed,
		"dups":      dups,
		"single":    {42},
		"pair":      {2, 1},
	}
}

// chunk splits vs into batches of the given size (last one ragged).
func chunk(vs []float64, size int) [][]float64 {
	var out [][]float64
	for len(vs) > size {
		out = append(out, vs[:size])
		vs = vs[size:]
	}
	return append(out, vs)
}

// TestExactInsertBatchEquivalence: for the exact estimator, batch ingestion
// must be indistinguishable from per-value insertion — same quantiles to
// the bit, any chunking.
func TestExactInsertBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, vs := range batchStreams(rng) {
		for _, size := range []int{1, 3, 64, 256, 1 << 20} {
			ref := NewExact()
			for _, v := range vs {
				ref.Insert(v)
			}
			got := NewExact()
			for _, b := range chunk(vs, size) {
				got.InsertBatch(b)
			}
			if ref.Count() != got.Count() {
				t.Fatalf("%s/size%d: count %d vs %d", name, size, got.Count(), ref.Count())
			}
			for _, q := range TrackedQuantiles {
				rv, err1 := ref.Query(q)
				gv, err2 := got.Query(q)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s/size%d: query errs %v %v", name, size, err1, err2)
				}
				if math.Float64bits(rv) != math.Float64bits(gv) {
					t.Fatalf("%s/size%d q=%v: %v != %v", name, size, gv, q, rv)
				}
			}
			if !reflect.DeepEqual(ref.Values(), got.Values()) {
				t.Fatalf("%s/size%d: value multisets diverge", name, size)
			}
		}
	}
}

// fuzzStrips decodes data into rows of one width (1–8 cells, from the first
// byte) cut into strips of 1–300 rows (lengths drawn from a generator seeded
// by the second byte). Each cell is a tag byte naming NaN, ±Inf, −0, +0, a
// subnormal of either sign or a small normal value, or taking the next eight
// bytes as raw bits, so any NaN payload or other pattern can appear.
func fuzzStrips(data []byte) (width int, strips [][][]float64) {
	if len(data) < 2 {
		return 0, nil
	}
	width = 1 + int(data[0]%8)
	rng := rand.New(rand.NewSource(int64(data[1])))
	data = data[2:]
	var rows [][]float64
	row := make([]float64, 0, width)
	for len(data) > 0 {
		tag := data[0]
		data = data[1:]
		var v float64
		switch tag % 8 {
		case 0:
			v = math.NaN()
		case 1:
			v = math.Inf(1)
		case 2:
			v = math.Inf(-1)
		case 3:
			v = math.Copysign(0, -1)
		case 4:
			v = 0
		case 5:
			v = math.Float64frombits(uint64(tag>>3&0xf) + 1)
			if tag >= 128 {
				v = -v
			}
		case 6:
			v = float64(int(tag>>3)-16) * 0.5
		case 7:
			var raw [8]byte
			data = data[copy(raw[:], data):]
			v = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
		}
		row = append(row, v)
		if len(row) == width {
			rows = append(rows, row)
			row = make([]float64, 0, width)
		}
	}
	for len(rows) > 0 {
		k := min(1+rng.Intn(300), len(rows))
		strips = append(strips, rows[:k])
		rows = rows[k:]
	}
	return width, strips
}

// FuzzInsertFiniteMatchesPerCell holds the filter kernel to the obvious
// reference: per-cell Insert of each finite cell, in row order, and a count
// of the rest. Drops, the returned count, Count, the stored values (bits and
// order) and the summary bits must agree, and the summary must match the
// sort oracle. GatherFinite's copy must hold every cell's bits and its count
// the column's non-finite cells. InsertFiniteColumn, fed each strip's
// columns, must store the same values and copy the same bits. Each input runs
// twice through the same estimators, zero-value and then after Reset.
func FuzzInsertFiniteMatchesPerCell(f *testing.F) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{2, 9, 64, 300} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		width, strips := fuzzStrips(data)
		got, want, cols := make([]Exact, width), make([]Exact, width), make([]Exact, width)
		for round := 0; round < 2; round++ {
			for s, strip := range strips {
				drops := make([]int, len(strip))
				for m := range got {
					dst := make([]float64, len(strip))
					col := make([]float64, len(strip))
					bad := 0
					for i, row := range strip {
						col[i] = row[m]
						if math.IsNaN(row[m]) || math.IsInf(row[m], 0) {
							bad++
						}
					}
					if n := got[m].GatherFinite(strip, m, drops, dst); n != bad {
						t.Fatalf("round %d strip %d metric %d: GatherFinite counted %d, %d non-finite cells", round, s, m, n, bad)
					}
					cdst := make([]float64, len(col))
					if n := cols[m].InsertFiniteColumn(col, cdst); n != bad {
						t.Fatalf("round %d strip %d metric %d: InsertFiniteColumn counted %d, %d non-finite cells", round, s, m, n, bad)
					}
					for i, v := range col {
						if math.Float64bits(cdst[i]) != math.Float64bits(v) || math.Float64bits(dst[i]) != math.Float64bits(v) {
							t.Fatalf("round %d strip %d metric %d row %d: retained %#x / %#x, cell %#x", round, s, m, i,
								math.Float64bits(dst[i]), math.Float64bits(cdst[i]), math.Float64bits(v))
						}
					}
				}
				for i, row := range strip {
					bad := 0
					for m, v := range row {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							bad++
							continue
						}
						want[m].Insert(v)
					}
					if drops[i] != bad {
						t.Fatalf("round %d strip %d row %d: %d drops, %d non-finite cells", round, s, i, drops[i], bad)
					}
				}
			}
			for m := range got {
				g, w := &got[m], &want[m]
				if g.Count() != w.Count() {
					t.Fatalf("round %d metric %d: Count %d, per-cell %d", round, m, g.Count(), w.Count())
				}
				gv, wv, cv := g.RawValues(), w.RawValues(), cols[m].RawValues()
				if len(cv) != len(wv) {
					t.Fatalf("round %d metric %d: InsertFiniteColumn stored %d values, per-cell %d", round, m, len(cv), len(wv))
				}
				for i := range gv {
					if math.Float64bits(cv[i]) != math.Float64bits(wv[i]) {
						t.Fatalf("round %d metric %d: column value %d is %#x, per-cell %#x", round, m, i,
							math.Float64bits(cv[i]), math.Float64bits(wv[i]))
					}
					if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
						t.Fatalf("round %d metric %d: value %d is %#x, per-cell %#x", round, m, i,
							math.Float64bits(gv[i]), math.Float64bits(wv[i]))
					}
				}
				if w.Count() == 0 {
					continue
				}
				sorted, _ := sortedOracle(wv)
				gs, gerr := Summarize(g)
				ws, werr := Summarize(w)
				if gerr != nil || werr != nil {
					t.Fatalf("round %d metric %d: Summarize errors %v, %v", round, m, gerr, werr)
				}
				for i, q := range TrackedQuantiles {
					o := oracleQuery(sorted, q)
					if math.Float64bits(gs[i]) != math.Float64bits(ws[i]) || math.Float64bits(gs[i]) != math.Float64bits(o) {
						t.Fatalf("round %d metric %d q=%v: %v, per-cell %v, sort says %v", round, m, q, gs[i], ws[i], o)
					}
				}
			}
			for m := range got {
				got[m].Reset()
				want[m].Reset()
				cols[m].Reset()
			}
		}
	})
}
