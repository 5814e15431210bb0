package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"dcfp/internal/dcsim"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
	"dcfp/internal/quantile"
)

// benchFixtureFrame builds the 2-shard bench fixture frame: one shard's
// half of a 100-machine fleet sampling 100 metrics clustered around their
// level (the aggregated-benchmark geometry), with the per-metric exact
// estimator state fed from the same rows, exactly as EpochFrame builds it.
func benchFixtureFrame(tb testing.TB) *Frame {
	tb.Helper()
	const machines, nm = 50, 100
	rng := rand.New(rand.NewSource(21))
	rows := make([][]float64, machines)
	ests := make([]quantile.Estimator, nm)
	for m := range ests {
		ests[m] = quantile.NewExact()
	}
	viol := make([]bool, machines)
	rep := make([]bool, machines)
	for i := range rows {
		row := make([]float64, nm)
		for m := range row {
			row[m] = 100 + rng.NormFloat64()*10
		}
		rows[i] = row
		rep[i] = true
		for m, v := range row {
			ests[m].Insert(v)
		}
	}
	return &Frame{
		Shard:      0,
		Epoch:      7,
		Machines:   2 * machines,
		Blocks:     []Block{{Lo: 0, Rows: rows, Viol: viol, Reporting: rep}},
		Estimators: ests,
	}
}

// estimatorBytes serializes an estimator slice with the binary codec — a
// deterministic fingerprint of estimator state for byte-identity assertions.
func estimatorBytes(tb testing.TB, ests []quantile.Estimator) []byte {
	tb.Helper()
	var buf []byte
	for _, est := range ests {
		var err error
		if buf, err = quantile.AppendBinary(buf, est); err != nil {
			tb.Fatal(err)
		}
	}
	return buf
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
// build), and the estimator mode a retired encoder used is corruption.
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
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != estModeNil {
		t.Fatalf("frame without estimators ends in mode %d, want %d", data[len(data)-1], estModeNil)
	}
	data[len(data)-1] = 3
	if _, err := DecodeFrame(sealHeader(data)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("estimator mode 3: err %v, want ErrCorrupt", err)
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
	for _, est := range f.Estimators {
		est.Reset()
	}
	for _, row := range f.Blocks[0].Rows {
		for m, v := range row {
			f.Estimators[m].Insert(v)
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
	if !bytes.Equal(estimatorBytes(t, got.Estimators), estimatorBytes(t, f.Estimators)) {
		t.Fatal("compressed round-trip mangled estimators")
	}
}

// alienEst is an estimator type the binary codec does not know.
type alienEst struct{ quantile.Exact }

// TestFrameEstimatorFallbackModes: exact state that is the shipped rows is
// elided and rebuilt (derived), anything else the binary codec knows ships
// explicitly, and an estimator it does not know fails the encode — there is
// no second format to fall back to.
func TestFrameEstimatorFallbackModes(t *testing.T) {
	roundTrip := func(t *testing.T, f *Frame) (*Frame, int) {
		t.Helper()
		data, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(estimatorBytes(t, got.Estimators), estimatorBytes(t, f.Estimators)) {
			t.Fatal("round trip mangled estimator state")
		}
		return got, len(data)
	}
	_, derivedLen := roundTrip(t, benchFixtureFrame(t))

	t.Run("derived", func(t *testing.T) {
		// Punch holes in the fixture so a nil row and a non-reporting
		// machine cross the codec too.
		f := benchFixtureFrame(t)
		f.Blocks[0].Rows[3] = nil
		f.Blocks[0].Reporting[3] = false
		f.Dropped = 17
		for m := range f.Estimators {
			f.Estimators[m] = quantile.NewExact()
		}
		for _, row := range f.Blocks[0].Rows {
			for m, v := range row {
				f.Estimators[m].Insert(v)
			}
		}
		got, n := roundTrip(t, f)
		if n >= derivedLen {
			t.Fatalf("frame with a nil row is %d bytes, full fixture %d: estimator section not elided", n, derivedLen)
		}
		got.Estimators, f.Estimators = nil, nil
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("frame differs after round trip:\ngot:  %+v\nwant: %+v", got, f)
		}
	})
	t.Run("explicit-exact", func(t *testing.T) {
		// Values sorts the state in place, so it no longer mirrors the rows.
		// (A query does not: it selects, and leaves the frame derivable.)
		f := benchFixtureFrame(t)
		f.Estimators[0].(*quantile.Exact).Values()
		if _, n := roundTrip(t, f); n <= derivedLen {
			t.Fatalf("frame is %d bytes, derived %d: estimator section missing", n, derivedLen)
		}
	})
	t.Run("explicit-sketch", func(t *testing.T) {
		f := benchFixtureFrame(t)
		for m := range f.Estimators {
			gk := quantile.MustGK(0.01)
			for _, row := range f.Blocks[0].Rows {
				gk.Insert(row[m])
			}
			f.Estimators[m] = gk
		}
		got, _ := roundTrip(t, f)
		if _, ok := got.Estimators[3].(*quantile.GK); !ok {
			t.Fatalf("sketch decoded as %T", got.Estimators[3])
		}
	})
	t.Run("unknown-type", func(t *testing.T) {
		f := benchFixtureFrame(t)
		f.Estimators[3] = &alienEst{}
		if data, err := f.Encode(); err == nil {
			t.Fatalf("estimator without a binary codec encoded to %d bytes, want an error", len(data))
		}
	})
}

// TestFrameDerivedModeOnWire asserts the size win actually engages for
// EpochFrame-built frames: the estimator section must be elided (derived
// mode), pinned by the frame being barely larger than its rows section.
func TestFrameDerivedModeOnWire(t *testing.T) {
	f := benchFixtureFrame(t)
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rowBytes := 50 * 100 * 8
	if len(data) > rowBytes+rowBytes/4 {
		t.Fatalf("v4 frame %d bytes for %d row bytes: estimator section not elided", len(data), rowBytes)
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
