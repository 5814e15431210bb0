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
	viol := make([]bool, machines)
	rep := make([]bool, machines)
	for i := range rows {
		row := make([]float64, nm)
		for m := range row {
			row[m] = 100 + rng.NormFloat64()*10
		}
		rows[i] = row
		rep[i] = true
	}
	return &Frame{
		Shard:      0,
		Epoch:      7,
		Machines:   2 * machines,
		NumMetrics: nm,
		Blocks:     []Block{{Lo: 0, Rows: rows, Viol: viol, Reporting: rep}},
	}
}

// TestFrameFixtureBytes pins the wire layout: the bench fixture frame must
// encode to exactly the bytes it always has (size and SHA-256 recorded when
// version 4 was the newest of three decodable versions). A change that moves
// either is a format change and bumps frameVersion.
//
// gob numbers types in order of first use, process-wide, so the metadata
// section's bytes depend on what the process encoded before; the pin holds
// for a process that encodes the fixture first. Unless this run is already
// that process, the test re-runs itself alone in a new one.
//
// The constants predate the frame losing its estimator field: an aggregator
// built before that and one built after ship the same bytes, which is the
// proof the two interoperate in both directions.
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
	const wantLen = 41060
	const wantSum = "6087eb9c32a84c789e5d5e16b094bec814a4724a76b4885605a135e8a827245a"
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
	// Constant rows compress extremely well and still exercise the whole
	// path (the fixture's random rows would too, just less dramatically).
	for _, row := range f.Blocks[0].Rows {
		for m := range row {
			row[m] = 42
		}
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
	if got.Blocks[0].Rows[10][10] != 42 {
		t.Fatal("compressed round-trip mangled rows")
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

// TestFrameEstimatorFallbackModes: a frame is its rows. It round-trips with
// holes in it, the trailer values retired encoders wrote — no state (0),
// explicit estimator payloads (1), gob (3) — decode as corruption, and a row
// of another width than the frame declares never reaches the wire.
func TestFrameEstimatorFallbackModes(t *testing.T) {
	full, err := benchFixtureFrame(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("derived", func(t *testing.T) {
		// Punch holes in the fixture so a nil row and a non-reporting
		// machine cross the codec too.
		f := benchFixtureFrame(t)
		f.Blocks[0].Rows[3] = nil
		f.Blocks[0].Reporting[3] = false
		f.Dropped = 17
		data, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) >= len(full) {
			t.Fatalf("frame with a nil row is %d bytes, full fixture %d", len(data), len(full))
		}
		got, err := DecodeFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, f) {
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
		// Whole frames as the previous build's encoder wrote them.
		for _, name := range []string{"explicit-exact-mode1", "explicit-gk-mode1", "no-estimators-mode0"} {
			if _, err := DecodeFrame(corpusFrame(t, name)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: err %v, want ErrCorrupt", name, err)
			}
		}
	})
	t.Run("row-width", func(t *testing.T) {
		f := benchFixtureFrame(t)
		f.Blocks[0].Rows[7] = f.Blocks[0].Rows[7][:99]
		if data, err := f.Encode(); err == nil {
			t.Fatalf("frame with a 99-wide row under 100 metrics encoded to %d bytes, want an error", len(data))
		}
		// And the decoder holds a foreign encoder to the same rule.
		data := append([]byte(nil), full...)
		data[len(data)-1] = 99
		if _, err := DecodeFrame(sealHeader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("declared width 99 over 100-wide rows: err %v, want ErrCorrupt", err)
		}
	})
}

// TestFrameDerivedModeOnWire: a frame is barely larger than its rows
// section.
func TestFrameDerivedModeOnWire(t *testing.T) {
	f := benchFixtureFrame(t)
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rowBytes := 50 * 100 * 8
	if len(data) > rowBytes+rowBytes/4 {
		t.Fatalf("v4 frame %d bytes for %d row bytes", len(data), rowBytes)
	}
}

// TestFrameDecodeSlabs: a block's present rows decode as capped views of one
// slab per block — each row starting where the block's previous present row
// ends, cap == len so appending to a row never writes into the next — around
// a leading nil row, interleaved nil rows and an all-nil block.
func TestFrameDecodeSlabs(t *testing.T) {
	f := &Frame{Shard: 0, Epoch: 2, Machines: 12, NumMetrics: 3, Blocks: []Block{
		{Lo: 0, Rows: [][]float64{nil, {1, 2, 3}, {4, 5, 6}, nil, {7, 8, 9}}},
		{Lo: 5, Rows: [][]float64{nil, nil}},
		{Lo: 8, Rows: [][]float64{{10, 11, 12}, nil, {13, 14, 15}, {16, 17, 18}}},
	}}
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		b.Viol = make([]bool, len(b.Rows))
		b.Reporting = make([]bool, len(b.Rows))
		for i, row := range b.Rows {
			b.Reporting[i] = row != nil
		}
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("frame differs after round trip:\ngot:  %+v\nwant: %+v", got, f)
	}
	at := func(row []float64) uintptr { return reflect.ValueOf(row).Pointer() }
	for bi, b := range got.Blocks {
		var prev []float64
		for i, row := range b.Rows {
			if row == nil {
				continue
			}
			if cap(row) != len(row) {
				t.Errorf("block %d row %d: cap %d, len %d", bi, i, cap(row), len(row))
			}
			if prev != nil && at(row) != at(prev)+uintptr(8*len(prev)) {
				t.Errorf("block %d row %d does not follow the block's previous present row", bi, i)
			}
			prev = row
			if grown := append(row, -1); grown[len(row)] != -1 {
				t.Fatal("append lost its value")
			}
		}
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatal("appending to a decoded row wrote into another")
	}
	// Block 0's slab has room left after its last row; block 2 does not use it.
	if last := got.Blocks[0].Rows[4]; at(got.Blocks[2].Rows[0]) == at(last)+uintptr(8*len(last)) {
		t.Fatal("block 2's rows continue block 0's slab")
	}
}

// mixedWidthFrame is a sealed frame declaring 3 metrics whose block's second
// present row is 3+delta cells wide: what an encoder without Encode's
// row-width check would send.
func mixedWidthFrame(tb testing.TB, delta int) []byte {
	tb.Helper()
	f := &Frame{Shard: 0, Epoch: 1, Machines: 4, NumMetrics: 3, Blocks: []Block{{
		Rows:      [][]float64{nil, {1, 2, 3}, {4, 5, 6}},
		Viol:      make([]bool, 3),
		Reporting: []bool{false, true, true},
	}}}
	data, err := f.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	// The payload ends: cell count 3, 24 row bytes, trailer (marker, width).
	at := len(data) - 2 - 24 - 1
	out := append(append([]byte(nil), data[:at]...), byte(3+delta))
	out = append(out, data[at+1:at+1+24+8*min(delta, 0)]...)
	for i := 0; i < delta; i++ {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(7))
	}
	return sealHeader(append(out, data[len(data)-2:]...))
}

// TestFrameDecodeMixedWidth: a row narrower or wider than the first present
// row of its block is corruption, refused without a panic.
func TestFrameDecodeMixedWidth(t *testing.T) {
	for _, delta := range []int{-1, -2, 1} {
		if _, err := DecodeFrame(mixedWidthFrame(t, delta)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("second row %d cells off: err %v, want ErrCorrupt", delta, err)
		}
	}
	if _, err := DecodeFrame(mixedWidthFrame(t, 0)); err != nil {
		t.Fatalf("unmodified frame: %v", err)
	}
}

// TestFrameInflateBound: a compressed body inflates up to the decoder's limit
// and no further. A body of exactly the limit decodes and one byte less
// refuses it; a bomb 16× the limit is corrupt after allocating a small
// multiple of the limit, not of the bomb.
func TestFrameInflateBound(t *testing.T) {
	f := benchFixtureFrame(t)
	for _, row := range f.Blocks[0].Rows {
		for m := range row {
			row[m] = 42
		}
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
	if _, err := decodeFrameV4(data[headerLen:], body); err != nil {
		t.Fatalf("body of exactly the limit: %v", err)
	}
	if _, err := decodeFrameV4(data[headerLen:], body-1); !errors.Is(err, ErrCorrupt) {
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
	_, err = decodeFrameV4(bomb, limit)
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
	v4, err := f.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode/v4", func(b *testing.B) {
		b.SetBytes(int64(len(v4)))
		for i := 0; i < b.N; i++ {
			if _, err := f.Encode(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/v4", func(b *testing.B) {
		b.SetBytes(int64(len(v4)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeFrame(v4); err != nil {
				b.Fatal(err)
			}
		}
	})
	// A fleet-2x1k shard frame: 1 000 rows × 100 metrics, where the rows, not
	// the gob metadata, are the cost.
	k1, err := halfFleetFrame(b, 1000).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode/1k", func(b *testing.B) {
		b.SetBytes(int64(len(k1)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeFrame(k1); err != nil {
				b.Fatal(err)
			}
		}
	})
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
