package fleet

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dcfp/internal/dcsim"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
)

// benchFixtureFrame builds the 2-shard bench fixture frame: one shard's
// half of a 100-machine fleet sampling 100 metrics clustered around their
// level (the aggregated-benchmark geometry), every machine reporting.
func benchFixtureFrame(tb testing.TB) *Frame { return halfFleetFrame(tb, 50) }

// halfFleetFrame is shard 0's frame of a 2-shard fleet of 2×machines, in the
// bench fixture's layout: 100 metrics per row, every machine reporting.
func halfFleetFrame(tb testing.TB, machines int) *Frame {
	tb.Helper()
	const nm = 100
	rng := rand.New(rand.NewSource(21))
	rows := make([][]float64, machines)
	for i := range rows {
		row := make([]float64, nm)
		for m := range row {
			row[m] = 100 + rng.NormFloat64()*10
		}
		rows[i] = row
	}
	return &Frame{
		Shard:      0,
		Epoch:      7,
		Machines:   2 * machines,
		NumMetrics: nm,
		Blocks:     []Block{rowsBlock(0, nm, rows)},
	}
}

// rowsBlock is the block a shard ships for rows starting at machine lo: a
// nil row is a machine that did not report, the others ship their cells by
// metric column.
func rowsBlock(lo, width int, rows [][]float64) Block {
	b := Block{Lo: lo, Viol: make([]bool, len(rows)), Reporting: make([]bool, len(rows))}
	var kept [][]float64
	for i, row := range rows {
		if row != nil {
			b.Reporting[i] = true
			kept = append(kept, row)
		}
	}
	if len(kept) > 0 {
		b.Cols = make([]float64, width*len(kept))
		for i, row := range kept {
			for m, v := range row {
				b.Cols[m*len(kept)+i] = v
			}
		}
	}
	return b
}

// TestFrameFixtureBytes pins the wire layout: the bench fixture frame must
// encode to exactly the bytes it always has (size and SHA-256 recorded when
// version 5 laid the cells out by metric column). A change that moves either
// is a format change and bumps frameVersion.
//
// gob numbers types in order of first use, process-wide, so the metadata
// section's bytes depend on what the process encoded before; the pin holds
// for a process that encodes the fixture first. Unless this run is already
// that process, the test re-runs itself alone in a new one.
func TestFrameFixtureBytes(t *testing.T) {
	const alone = "^TestFrameFixtureBytes$"
	if flag.Lookup("test.run").Value.String() != alone {
		out, err := exec.Command(os.Args[0], "-test.run="+alone).CombinedOutput()
		if err != nil {
			t.Fatalf("in a fresh process: %v\n%s", err, out)
		}
		return
	}
	data, err := benchFixtureFrame(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	const wantLen = 41009
	const wantSum = "17f04f74be9fe0eec3dfef3ccf097c525d968d9095c3b25abca86302b9f2a82d"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != wantLen || got != wantSum {
		t.Fatalf("fixture frame is %d bytes, sha256 %s; want %d bytes, %s", len(data), got, wantLen, wantSum)
	}
}

// TestFrameOneVersion: any header version but the current one is a protocol
// rejection (not ErrCorrupt — the bytes are intact, the sender is a different
// build).
func TestFrameOneVersion(t *testing.T) {
	f := &Frame{Shard: 0, Epoch: 3, Machines: 4}
	for _, v := range []uint32{1, 2, 3, frameVersion + 1} {
		data, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		// The CRC covers only the payload, so no reseal is needed.
		binary.BigEndian.PutUint32(data[len(frameMagic):], v)
		_, err = DecodeFrame(data)
		if err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "frame version") {
			t.Errorf("version %d: err %v, want the frame-version protocol error", v, err)
		}
	}
}

// TestFrameCompression: bodies above the threshold are flate-compressed on
// the wire and decode back identical.
func TestFrameCompression(t *testing.T) {
	f := benchFixtureFrame(t)
	// Constant cells compress extremely well and still exercise the whole
	// path (the fixture's random cells would too, just less dramatically).
	for i := range f.Blocks[0].Cols {
		f.Blocks[0].Cols[i] = 42
	}
	plain, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}

	old := frameCompressThreshold
	frameCompressThreshold = 1 << 10
	defer func() { frameCompressThreshold = old }()
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if data[headerLen]&frameFlagCompressed == 0 {
		t.Fatal("oversized body not compressed")
	}
	if len(data) >= len(plain) {
		t.Fatalf("compressed frame %d bytes not smaller than uncompressed %d", len(data), len(plain))
	}
	got, err := DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unpooled(got), f) {
		t.Fatal("compressed round-trip mangled the frame")
	}
	if got.NumMetrics != f.NumMetrics {
		t.Fatalf("compressed round-trip: row width %d, want %d", got.NumMetrics, f.NumMetrics)
	}
}

// corpusFrame reads one FuzzDecodeFrame seed file (go test fuzz v1, a single
// []byte literal).
func corpusFrame(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeFrame", name))
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(data)
}

// TestFrameEstimatorFallbackModes: a frame is its cells. It round-trips with
// holes in it, the trailer values retired encoders wrote — no state (0),
// explicit estimator payloads (1), gob (3) — decode as corruption, and
// columns of another length than the reporting machines × the declared
// width never reach the wire.
func TestFrameEstimatorFallbackModes(t *testing.T) {
	full, err := benchFixtureFrame(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("derived", func(t *testing.T) {
		// Punch a hole in the fixture so a non-reporting machine, which
		// ships no cells, crosses the codec too.
		f := benchFixtureFrame(t)
		b := &f.Blocks[0]
		n := len(b.Reporting)
		var cols []float64
		for m := 0; m < f.NumMetrics; m++ {
			col := b.Cols[m*n : (m+1)*n]
			cols = append(append(cols, col[:3]...), col[4:]...)
		}
		b.Cols = cols
		b.Reporting[3] = false
		f.Dropped = 17
		data, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) >= len(full) {
			t.Fatalf("frame with a silent machine is %d bytes, full fixture %d", len(data), len(full))
		}
		got, err := DecodeFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(unpooled(got), f) {
			t.Fatalf("frame differs after round trip:\ngot:  %+v\nwant: %+v", got, f)
		}
	})
	t.Run("reserved-modes", func(t *testing.T) {
		// The fixture ends marker byte + one-byte uvarint(100).
		if full[len(full)-2] != rowWidthMarker {
			t.Fatalf("fixture trailer starts with %d, want %d", full[len(full)-2], rowWidthMarker)
		}
		for _, mode := range []byte{0, 1, 3} {
			data := append([]byte(nil), full...)
			data[len(data)-2] = mode
			if _, err := DecodeFrame(sealHeader(data)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("trailer mode %d: err %v, want ErrCorrupt", mode, err)
			}
		}
		// Whole frames as an older build's encoder wrote them: refused as
		// another version, and as corruption when resealed under this one.
		for _, name := range []string{"explicit-exact-mode1", "explicit-gk-mode1", "no-estimators-mode0"} {
			data := corpusFrame(t, name)
			if _, err := DecodeFrame(data); err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "frame version") {
				t.Errorf("%s: err %v, want the frame-version protocol error", name, err)
			}
			if _, err := DecodeFrame(sealHeader(append([]byte(nil), data...))); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s resealed: err %v, want ErrCorrupt", name, err)
			}
		}
	})
	t.Run("row-width", func(t *testing.T) {
		for _, delta := range []int{-1, 1} {
			f := benchFixtureFrame(t)
			b := &f.Blocks[0]
			b.Cols = b.Cols[:len(b.Cols)+min(delta, 0)]
			if delta > 0 {
				b.Cols = append(b.Cols, 1)
			}
			if data, err := f.Encode(); err == nil {
				t.Fatalf("frame with columns %d cells off encoded to %d bytes, want an error", delta, len(data))
			}
		}
		f := benchFixtureFrame(t)
		f.Blocks[0].Viol = f.Blocks[0].Viol[1:]
		if data, err := f.Encode(); err == nil {
			t.Fatalf("frame with a short violation mask encoded to %d bytes, want an error", len(data))
		}
		// And the decoder holds a foreign encoder to the same rule.
		data := append([]byte(nil), full...)
		data[len(data)-1] = 99
		if _, err := DecodeFrame(sealHeader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("declared width 99 over 100 columns: err %v, want ErrCorrupt", err)
		}
	})
}

// TestFrameDerivedModeOnWire: a frame is barely larger than its column
// section.
func TestFrameDerivedModeOnWire(t *testing.T) {
	f := benchFixtureFrame(t)
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rowBytes := 50 * 100 * 8
	if len(data) > rowBytes+rowBytes/4 {
		t.Fatalf("frame of %d bytes for %d cell bytes", len(data), rowBytes)
	}
}

// TestFrameDecodeSlabs: a frame's columns decode as capped views of one
// slab — each block's starting where the previous non-empty block's end,
// cap == len so appending to one block's columns never writes into the
// next's — around a leading silent machine, interleaved ones and an
// all-silent block. Release hands the slab back: the frame's columns are
// gone, and a later decode that reuses the slab holds its own values.
func TestFrameDecodeSlabs(t *testing.T) {
	f := &Frame{Shard: 0, Epoch: 2, Machines: 12, NumMetrics: 3, Blocks: []Block{
		rowsBlock(0, 3, [][]float64{nil, {1, 2, 3}, {4, 5, 6}, nil, {7, 8, 9}}),
		rowsBlock(5, 3, [][]float64{nil, nil}),
		rowsBlock(8, 3, [][]float64{{10, 11, 12}, nil, {13, 14, 15}, {16, 17, 18}}),
	}}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unpooled(got), f) {
		t.Fatalf("frame differs after round trip:\ngot:  %+v\nwant: %+v", got, f)
	}
	at := func(c []float64) uintptr { return reflect.ValueOf(c).Pointer() }
	first, last := got.Blocks[0].Cols, got.Blocks[2].Cols
	if at(last) != at(first)+uintptr(8*len(first)) {
		t.Error("block 2's columns do not follow block 0's in one slab")
	}
	for bi, b := range got.Blocks {
		if cap(b.Cols) != len(b.Cols) {
			t.Errorf("block %d: cap %d, len %d", bi, cap(b.Cols), len(b.Cols))
		}
		if grown := append(b.Cols, -1); grown[len(b.Cols)] != -1 {
			t.Fatal("append lost its value")
		}
	}
	if !reflect.DeepEqual(unpooled(got), f) {
		t.Fatal("appending to a block's decoded columns wrote into another's")
	}
	got.Release()
	for bi, b := range got.Blocks {
		if b.Cols != nil {
			t.Errorf("block %d keeps its columns after Release", bi)
		}
	}
	if got.Shard != f.Shard || !reflect.DeepEqual(got.Blocks[2].Reporting, f.Blocks[2].Reporting) {
		t.Error("Release touched more than the columns")
	}
	got.Release() // a second Release hands nothing back twice
	for i := range f.Blocks[2].Cols {
		f.Blocks[2].Cols[i] *= -1
	}
	data, err = f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	again, err := DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unpooled(again), f) {
		t.Fatalf("decode after Release differs:\ngot:  %+v\nwant: %+v", again, f)
	}
}

// unpooled is a decoded frame without its pooled slab, for comparing its
// fields with a frame built in process.
func unpooled(f *Frame) *Frame {
	g := *f
	g.slab = nil
	return &g
}

// offLengthFrame is a sealed frame declaring 3 metrics over two reporting
// machines whose column section is delta cells off: what an encoder without
// Encode's column check would send.
func offLengthFrame(tb testing.TB, delta int) []byte {
	tb.Helper()
	f := &Frame{Shard: 0, Epoch: 1, Machines: 4, NumMetrics: 3, Blocks: []Block{
		rowsBlock(0, 3, [][]float64{nil, {1, 2, 3}, {4, 5, 6}}),
	}}
	data, err := f.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	// The payload ends: 48 column bytes, trailer (marker, width).
	at := len(data) - 2
	out := append([]byte(nil), data[:at+8*min(delta, 0)]...)
	for i := 0; i < delta; i++ {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(7))
	}
	return sealHeader(append(out, data[at:]...))
}

// silentColumnsFrame is a sealed frame whose block marks a machine
// reporting yet ships no column section at all.
func silentColumnsFrame(tb testing.TB) []byte {
	tb.Helper()
	f := &Frame{Shard: 0, Epoch: 1, Machines: 4, NumMetrics: 3, Blocks: []Block{
		rowsBlock(0, 3, [][]float64{nil, {1, 2, 3}}),
	}}
	data, err := f.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	at := len(data) - 2
	return sealHeader(append(append([]byte(nil), data[:at-24]...), data[at:]...))
}

// widthMismatchFrame is offLengthFrame's frame with a trailer declaring
// width 2 over its 3 columns.
func widthMismatchFrame(tb testing.TB) []byte {
	tb.Helper()
	data := offLengthFrame(tb, 0)
	data[len(data)-1] = 2
	return sealHeader(data)
}

// TestFrameDecodeMixedWidth: the column section's length is derived from
// the reporting masks and the declared width; one value short or long, a
// reporting machine without cells and a width trailer that disagrees are
// all corruption, refused without a panic.
func TestFrameDecodeMixedWidth(t *testing.T) {
	for _, delta := range []int{-1, -2, 1} {
		if _, err := DecodeFrame(offLengthFrame(t, delta)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("column section %d cells off: err %v, want ErrCorrupt", delta, err)
		}
	}
	if _, err := DecodeFrame(silentColumnsFrame(t)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("reporting machine without cells: err %v, want ErrCorrupt", err)
	}
	if _, err := DecodeFrame(widthMismatchFrame(t)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("width trailer 2 over 3 columns: err %v, want ErrCorrupt", err)
	}
	if _, err := DecodeFrame(offLengthFrame(t, 0)); err != nil {
		t.Fatalf("unmodified frame: %v", err)
	}
}

// TestFrameInflateBound: a compressed body inflates up to the decoder's limit
// and no further. A body of exactly the limit decodes and one byte less
// refuses it; a bomb 16× the limit is corrupt after allocating a small
// multiple of the limit, not of the bomb.
func TestFrameInflateBound(t *testing.T) {
	f := benchFixtureFrame(t)
	for i := range f.Blocks[0].Cols {
		f.Blocks[0].Cols[i] = 42
	}
	plain, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	old := frameCompressThreshold
	frameCompressThreshold = 1 << 10
	data, err := f.Encode()
	frameCompressThreshold = old
	if err != nil {
		t.Fatal(err)
	}
	body := int64(len(plain) - headerLen - 1)
	if _, err := decodePayload(data[headerLen:], body); err != nil {
		t.Fatalf("body of exactly the limit: %v", err)
	}
	if _, err := decodePayload(data[headerLen:], body-1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("body one byte over the limit: err %v, want ErrCorrupt", err)
	}

	const limit = 1 << 20
	var cb bytes.Buffer
	fw, err := flate.NewWriter(&cb, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 64<<10)
	for n := 0; n < 16*limit; n += len(zeros) {
		fw.Write(zeros)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	bomb := append([]byte{frameFlagCompressed}, cb.Bytes()...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodePayload(bomb, limit)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%d-byte bomb of %d zeros: err %v, want ErrCorrupt", len(bomb), 16*limit, err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 8*limit {
		t.Fatalf("decoding the bomb allocated %d bytes, want at most %d (8× the %d-byte limit)", d, 8*limit, limit)
	}
}

func BenchmarkFrameCodec(b *testing.B) {
	f := benchFixtureFrame(b)
	v5, err := f.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode/v5", func(b *testing.B) {
		b.SetBytes(int64(len(v5)))
		for i := 0; i < b.N; i++ {
			if _, err := f.Encode(); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Decodes release their frame, as the coordinator does once the epoch
	// merges, so the column slab comes from the pool.
	decode := func(data []byte) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				f, err := DecodeFrame(data)
				if err != nil {
					b.Fatal(err)
				}
				f.Release()
			}
		}
	}
	b.Run("decode/v5", decode(v5))
	// A fleet-2x1k shard frame: 1 000 machines × 100 metrics, where the
	// cells, not the gob metadata, are the cost.
	k1, err := halfFleetFrame(b, 1000).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode/1k", decode(k1))
}

// BenchmarkFleetEpochThroughput measures end-to-end fleet epochs through
// the in-process harness — EpochFrame build + encode, wire decode,
// coordinator merge, monitor finish — reporting frames/sec across the
// shard fan-out.
func BenchmarkFleetEpochThroughput(b *testing.B) {
	for _, shards := range []int{2, 4} {
		b.Run(fmt.Sprintf("%dshards", shards), func(b *testing.B) {
			scfg := dcsim.DefaultStreamConfig(3)
			scfg.WarmupEpochs = 48
			s, err := dcsim.NewStream(scfg)
			if err != nil {
				b.Fatal(err)
			}
			mcfg := monitor.DefaultConfig(s.Catalog(), s.SLA())
			mcfg.Workers = 1
			mon, err := monitor.New(mcfg)
			if err != nil {
				b.Fatal(err)
			}
			h, err := NewHarness(CoordinatorConfig{
				Machines:   scfg.Machines,
				Shards:     shards,
				Monitor:    mon,
				FlushAfter: -1,
			}, AggregatorConfig{
				NumMetrics: s.Catalog().Len(),
				SLA:        s.SLA(),
			})
			if err != nil {
				b.Fatal(err)
			}
			// Pre-generate a window of epochs so the simulator is off the
			// clock; cycle through it.
			const window = 16
			rows := make([][][]float64, window)
			for i := range rows {
				r, _, err := s.Next()
				if err != nil {
					b.Fatal(err)
				}
				cp := make([][]float64, len(r))
				for j := range r {
					cp[j] = append([]float64(nil), r[j]...)
				}
				rows[i] = cp
			}
			frameBytes := 0
			if data, err := h.Aggregators[0].EpochFrame(metrics.Epoch(0), rows[0], nil); err == nil {
				frameBytes = len(data)
				// Rebuild the harness: the probe consumed epoch 0 state.
				mon, _ = monitor.New(mcfg)
				h, err = NewHarness(CoordinatorConfig{
					Machines: scfg.Machines, Shards: shards, Monitor: mon, FlushAfter: -1,
				}, AggregatorConfig{NumMetrics: s.Catalog().Len(), SLA: s.SLA()})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(frameBytes * shards))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.Step(metrics.Epoch(i), rows[i%window], nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(shards)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}
