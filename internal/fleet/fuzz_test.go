package fleet

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"dcfp/internal/dcsim"
	"dcfp/internal/monitor"
)

// fuzzSeedCorpus is the hand-picked seed set shared by both fuzz targets:
// empty, header fragments, a valid frame, and systematic mutations of it.
func fuzzSeedCorpus(f *testing.F) {
	f.Helper()
	f.Add([]byte{})
	f.Add([]byte(frameMagic))
	f.Add([]byte("DCFPFLT0\x00\x00\x00\x01"))
	valid := validFuzzFrame(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:headerLen])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	garbage := append([]byte(nil), valid[:headerLen]...)
	garbage = append(garbage, []byte("not gob at all, but plenty of bytes to chew on")...)
	f.Add(garbage)

	// A truncated trailer, a cell mutated on the wire, the three retired
	// trailer modes, column sections one value short and long, a reporting
	// machine without cells, a width trailer that disagrees and a
	// flate-compressed body, so the fuzzer starts inside every decode arm.
	// (FuzzHandleFrameBytes reseals them past the CRC; whole frames as older
	// builds wrote them are the files under testdata: must-reject seeds.)
	f.Add(valid[:len(valid)-1])
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)-9] ^= 0xff
	f.Add(mutated)
	for _, mode := range []byte{0, 1, 3} {
		retired := append([]byte(nil), valid...)
		retired[len(retired)-2] = mode
		f.Add(retired)
	}
	f.Add(offLengthFrame(f, -1))
	f.Add(offLengthFrame(f, 1))
	f.Add(silentColumnsFrame(f))
	f.Add(widthMismatchFrame(f))
	fr, err := DecodeFrame(valid)
	if err != nil {
		f.Fatal(err)
	}
	old := frameCompressThreshold
	frameCompressThreshold = 8
	if compressed, err := fr.Encode(); err == nil {
		f.Add(compressed)
	}
	frameCompressThreshold = old
}

func validFuzzFrame(f *testing.F) []byte {
	f.Helper()
	fr := &Frame{
		Shard: 0, Epoch: 3, Machines: 6, NumMetrics: 2,
		Blocks: []Block{{
			Lo:        0,
			Viol:      []bool{false, true, false},
			Reporting: []bool{true, false, true},
			Cols:      []float64{1, 3, 2, 4},
		}},
	}
	data, err := fr.Encode()
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzDecodeFrame: arbitrary bytes must never panic the frame decoder, and
// whatever decodes must satisfy the structural invariants the merge relies
// on and re-encode.
func FuzzDecodeFrame(f *testing.F) {
	fuzzSeedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if fr.Shard < 0 || fr.Machines <= 0 || fr.Epoch < 0 {
			t.Fatalf("decoded frame with invalid geometry: %+v", fr)
		}
		for bi, b := range fr.Blocks {
			if len(b.Viol) != len(b.Reporting) || len(b.Cols) != b.reportingCount()*fr.NumMetrics {
				t.Fatalf("block %d: inconsistent lengths survived validation", bi)
			}
			if b.Lo < 0 || b.Lo+len(b.Reporting) > fr.Machines {
				t.Fatalf("block %d: out-of-range [%d,%d) survived validation", bi, b.Lo, b.Lo+len(b.Reporting))
			}
		}
		if _, err := fr.Encode(); err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
	})
}

// FuzzHandleFrameBytes drives fuzzed payloads through a live coordinator —
// re-sealing the fuzz payload under a fresh header+checksum so the fuzzer
// reaches past the CRC into payload decoding, structural validation, and the
// merge path. The coordinator must reject or absorb everything without
// panicking.
func FuzzHandleFrameBytes(f *testing.F) {
	fuzzSeedCorpus(f)
	scfg := dcsim.DefaultStreamConfig(1)
	s, err := dcsim.NewStream(scfg)
	if err != nil {
		f.Fatal(err)
	}
	mcfg := monitor.DefaultConfig(s.Catalog(), s.SLA())
	mcfg.Workers = 1
	f.Fuzz(func(t *testing.T, data []byte) {
		mon, err := monitor.New(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		coord, err := NewCoordinator(CoordinatorConfig{
			Machines: scfg.Machines, Shards: 2, Monitor: mon, FlushAfter: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Raw bytes first: the usual header/CRC rejection path.
		ack, code := coord.HandleFrameBytes(data)
		if ack == nil || code == 0 {
			t.Fatal("nil ack or zero status for raw payload")
		}
		// Then the same bytes sealed as a well-formed wire frame, so the
		// payload decoder and the structural validators see attacker-shaped
		// payloads.
		if len(data) > headerLen {
			sealed := append([]byte(nil), data...)
			copy(sealed, frameMagic)
			binary.BigEndian.PutUint32(sealed[len(frameMagic):], frameVersion)
			binary.BigEndian.PutUint32(sealed[len(frameMagic)+4:], crc32.ChecksumIEEE(sealed[headerLen:]))
			ack, code = coord.HandleFrameBytes(sealed)
			if ack == nil || code == 0 {
				t.Fatal("nil ack or zero status for sealed payload")
			}
		}
	})
}
