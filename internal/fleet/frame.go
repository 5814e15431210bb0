package fleet

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"dcfp/internal/crisis"
	"dcfp/internal/metrics"
	"dcfp/internal/sla"
	"dcfp/internal/telemetry"
)

// frameMagic and frameVersion head every wire frame, mirroring the monitor
// checkpoint codec: the magic rejects foreign payloads outright, and there is
// exactly one version — any change to the layout bumps it, and a frame under
// any other version is refused (a protocol error, not ErrCorrupt) rather
// than decoded through a compatibility path. The header also carries a CRC32
// of the payload: a corrupted frame that happened to decode would silently
// poison the deterministic merge.
//
// The payload (see the "Wire format" section of DESIGN.md) is a flags byte,
// a gob-encoded metadata section (everything except the bulk rows), a
// fixed-width little-endian rows section, and a two-field trailer declaring
// the row width. A shard's quantile contribution is its rows: the coordinator
// filters them into its own estimators. Bodies above frameCompressThreshold
// are flate-compressed.
const frameMagic = "DCFPFLT1"
const frameVersion uint32 = 4

// headerLen is magic + version + payload CRC32 (IEEE).
const headerLen = len(frameMagic) + 4 + 4

// ErrCorrupt marks a payload that was damaged in flight — truncated below
// the header, failing its checksum, or passing the checksum yet failing gob
// decode or structural validation. The coordinator counts these separately
// from protocol rejections (errors.Is-matchable).
var ErrCorrupt = errors.New("fleet: corrupt frame")

// Block is one contiguous machine slice of a frame: after a rebalance a
// shard may own several disjoint ranges, each shipped as its own block.
// Rows are the raw per-machine samples for [Lo, Lo+len(Rows)); a nil row
// marks a machine that delivered nothing (or delivered no finite values —
// the coordinator never reads rows of non-reporting machines, so the
// aggregator nils them to save wire bytes).
type Block struct {
	Lo        int
	Rows      [][]float64
	Viol      []bool
	Reporting []bool
}

// Frame is one shard's complete contribution to one epoch.
type Frame struct {
	// Shard is the sender's shard index; Epoch the fleet epoch the frame
	// describes; AssignVersion the assignment version the sender sliced
	// under (a stale version makes the coordinator attach the current
	// assignment to its ack).
	Shard         int
	Epoch         metrics.Epoch
	AssignVersion int
	// Machines is the fleet width the sender believes; the coordinator
	// rejects frames that disagree with its own.
	Machines int
	// NumMetrics is the catalog width: every present row of every block
	// holds exactly this many values (Encode and DecodeFrame both check).
	NumMetrics int
	Blocks     []Block
	// Status is the shard's partial SLA status over all its blocks.
	Status sla.EpochStatus
	// Dropped counts the non-finite cells of the shard's rows, including the
	// rows of non-reporting machines it shipped as nil.
	Dropped int
	// Active carries the simulator's ground-truth crisis instance when
	// the shard runs the seeded simulation (nil in production ingestion);
	// the coordinator hands it to its report callback so the simulated
	// operator loop works unchanged in fleet mode.
	Active *crisis.Instance

	// Observability section.
	//
	// TraceID is the cross-process trace context for this epoch
	// (telemetry.EpochTraceID) and Spans the shard's completed
	// observe_shard span snapshots up to the ship attempt — the
	// coordinator grafts them into its merge_epoch trace so one
	// distributed trace covers the epoch end to end.
	TraceID uint64
	Spans   []telemetry.SpanSnapshot
	// Metrics is a full snapshot of the shard's telemetry registry
	// (counters/gauges plus histogram _count/_sum series); the coordinator
	// re-exposes it under dcfp_fleet_shard_* with a shard label. Full
	// snapshots rather than deltas keep re-exposition idempotent across
	// retries, duplicated frames, and coordinator restarts.
	Metrics []telemetry.SeriesValue
}

// Frame payload flags (first body byte).
const (
	// frameFlagCompressed marks a flate-compressed body.
	frameFlagCompressed = 1 << 0
)

// rowWidthMarker precedes the uvarint row width that ends the payload. The
// byte was the mode of an estimator section: 2 meant "no estimator payload,
// derive the state from the rows", the only mode a sender ever emitted and now
// the only meaning a frame has. The other values a retired encoder could
// write (0 no state, 1 explicit estimator payloads, 3 gob) stay reserved and
// decode as ErrCorrupt.
const rowWidthMarker = 2

// maxFrameBytes caps a frame twice: the coordinator answers a longer request
// body with 413, and the decoder refuses a body that inflates past it.
const maxFrameBytes = 64 << 20

// frameCompressThreshold is the body size above which Encode attempts flate
// compression. A package variable so tests can lower it; the default keeps
// ordinary frames on the fast uncompressed path.
var frameCompressThreshold = 1 << 20

// frameMetaV4 is the gob-encoded metadata section of a frame: every
// Frame field except Block.Rows and NumMetrics, which get binary layouts of
// their own.
type frameMetaV4 struct {
	Shard         int
	Epoch         metrics.Epoch
	AssignVersion int
	Machines      int
	Blocks        []blockMetaV4
	Status        sla.EpochStatus
	Dropped       int
	Active        *crisis.Instance
	TraceID       uint64
	Spans         []telemetry.SpanSnapshot
	Metrics       []telemetry.SeriesValue
}

type blockMetaV4 struct {
	Lo        int
	Viol      []bool
	Reporting []bool
}

// encScratch pools the build buffers Encode assembles frames in. Encoded
// frames are retained indefinitely by ship/replay rings, so Encode copies
// the finished frame out at exact size and recycles the oversized scratch.
var encScratch = sync.Pool{New: func() any { s := make([]byte, 0, 4096); return &s }}

// gobBufPool pools the bytes.Buffer behind gob sub-encodes (frame metadata,
// acks).
var gobBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Encode serializes the frame as magic + version + CRC32 + binary payload.
// The returned slice is freshly allocated at exact size; internal scratch is
// pooled and reused across calls. A present row that is not NumMetrics wide
// is an error.
func (f *Frame) Encode() ([]byte, error) {
	if err := f.checkRowWidths(); err != nil {
		return nil, fmt.Errorf("fleet: frame encode: %w", err)
	}
	sp := encScratch.Get().(*[]byte)
	buf := append((*sp)[:0], make([]byte, headerLen)...)
	buf = append(buf, 0) // flags, patched below

	// Metadata section: uvarint length + gob.
	meta := frameMetaV4{
		Shard:         f.Shard,
		Epoch:         f.Epoch,
		AssignVersion: f.AssignVersion,
		Machines:      f.Machines,
		Status:        f.Status,
		Dropped:       f.Dropped,
		Active:        f.Active,
		TraceID:       f.TraceID,
		Spans:         f.Spans,
		Metrics:       f.Metrics,
	}
	for i := range f.Blocks {
		meta.Blocks = append(meta.Blocks, blockMetaV4{
			Lo:        f.Blocks[i].Lo,
			Viol:      f.Blocks[i].Viol,
			Reporting: f.Blocks[i].Reporting,
		})
	}
	gb := gobBufPool.Get().(*bytes.Buffer)
	gb.Reset()
	err := gob.NewEncoder(gb).Encode(&meta)
	if err != nil {
		gobBufPool.Put(gb)
		encScratch.Put(sp)
		return nil, fmt.Errorf("fleet: frame encode: %w", err)
	}
	buf = binary.AppendUvarint(buf, uint64(gb.Len()))
	buf = append(buf, gb.Bytes()...)
	gobBufPool.Put(gb)

	// Rows section: per block, uvarint row count, then per row a uvarint
	// cell count and the raw float bits fixed-width little-endian. A nil
	// row is a zero cell count.
	for i := range f.Blocks {
		buf = binary.AppendUvarint(buf, uint64(len(f.Blocks[i].Rows)))
		for _, row := range f.Blocks[i].Rows {
			buf = binary.AppendUvarint(buf, uint64(len(row)))
			for _, v := range row {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}

	buf = append(buf, rowWidthMarker)
	buf = binary.AppendUvarint(buf, uint64(f.NumMetrics))

	// Optional whole-body compression for outsized frames.
	if body := buf[headerLen+1:]; len(body) > frameCompressThreshold {
		var cb bytes.Buffer
		fw, _ := flate.NewWriter(&cb, flate.BestSpeed)
		_, _ = fw.Write(body)
		if err := fw.Close(); err == nil && cb.Len() < len(body) {
			buf = append(buf[:headerLen+1], cb.Bytes()...)
			buf[headerLen] |= frameFlagCompressed
		}
	}

	sealHeader(buf)
	out := append([]byte(nil), buf...)
	*sp = buf[:0]
	encScratch.Put(sp)
	return out, nil
}

// checkRowWidths reports the first present row that is not NumMetrics wide.
func (f *Frame) checkRowWidths() error {
	for bi := range f.Blocks {
		for i, row := range f.Blocks[bi].Rows {
			if len(row) != 0 && len(row) != f.NumMetrics {
				return fmt.Errorf("block %d row %d has %d values, frame declares %d metrics",
					bi, i, len(row), f.NumMetrics)
			}
		}
	}
	return nil
}

// DecodeFrame parses a wire frame, validating magic, version, and checksum
// before touching the payload, and the decoded structure before handing it
// on. Zero-length rows are normalized back to nil: the codecs do not
// distinguish nil from empty slices, and a nil row is the pipeline's
// "machine delivered nothing" marker.
func DecodeFrame(data []byte) (*Frame, error) {
	rest, err := checkHeader(data)
	if err != nil {
		return nil, err
	}
	f, err := decodeFrameV4(rest, maxFrameBytes)
	if err != nil {
		return nil, err
	}
	if err := validateFrame(f); err != nil {
		return nil, err
	}
	return f, nil
}

// validateFrame is the structural validation of a decoded frame.
func validateFrame(f *Frame) error {
	if f.Shard < 0 || f.Epoch < 0 || f.Machines <= 0 {
		return fmt.Errorf("%w: shard %d epoch %d machines %d out of range",
			ErrCorrupt, f.Shard, f.Epoch, f.Machines)
	}
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		if len(b.Rows) != len(b.Viol) || len(b.Rows) != len(b.Reporting) {
			return fmt.Errorf("%w: block %d: rows/viol/reporting lengths %d/%d/%d disagree",
				ErrCorrupt, bi, len(b.Rows), len(b.Viol), len(b.Reporting))
		}
		if b.Lo < 0 || b.Lo+len(b.Rows) > f.Machines {
			return fmt.Errorf("%w: block %d: range [%d,%d) outside fleet of %d",
				ErrCorrupt, bi, b.Lo, b.Lo+len(b.Rows), f.Machines)
		}
		for i, row := range b.Rows {
			if len(row) == 0 {
				b.Rows[i] = nil
			}
		}
	}
	return nil
}

// decodeFrameV4 parses the binary payload (flags + meta + rows + row-width
// trailer). All counts are bounds-checked against the remaining
// payload before allocation, and a compressed body is inflated no further
// than limit bytes, so corrupted or adversarial frames fail with ErrCorrupt
// instead of outsized allocations.
func decodeFrameV4(payload []byte, limit int64) (*Frame, error) {
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: v4 payload missing flags byte", ErrCorrupt)
	}
	flags, body := payload[0], payload[1:]
	if flags&^byte(frameFlagCompressed) != 0 {
		return nil, fmt.Errorf("%w: v4 payload has unknown flags %#x", ErrCorrupt, flags)
	}
	if flags&frameFlagCompressed != 0 {
		raw, err := readAtMost(flate.NewReader(bytes.NewReader(body)), int64(len(body)), limit)
		if err != nil {
			return nil, fmt.Errorf("%w: v4 decompress: %v", ErrCorrupt, err)
		}
		if int64(len(raw)) > limit {
			return nil, fmt.Errorf("%w: v4 body inflates past %d bytes", ErrCorrupt, limit)
		}
		body = raw
	}

	metaLen, n := binary.Uvarint(body)
	if n <= 0 || metaLen > uint64(len(body)-n) {
		return nil, fmt.Errorf("%w: v4 metadata length", ErrCorrupt)
	}
	body = body[n:]
	var meta frameMetaV4
	if err := gob.NewDecoder(bytes.NewReader(body[:metaLen])).Decode(&meta); err != nil {
		return nil, fmt.Errorf("%w: v4 metadata decode: %v", ErrCorrupt, err)
	}
	body = body[metaLen:]

	f := &Frame{
		Shard:         meta.Shard,
		Epoch:         meta.Epoch,
		AssignVersion: meta.AssignVersion,
		Machines:      meta.Machines,
		Status:        meta.Status,
		Dropped:       meta.Dropped,
		Active:        meta.Active,
		TraceID:       meta.TraceID,
		Spans:         meta.Spans,
		Metrics:       meta.Metrics,
	}
	uvarint := func(what string) (int, error) {
		v, n := binary.Uvarint(body)
		if n <= 0 || v > uint64(len(body)-n) {
			return 0, fmt.Errorf("%w: v4 %s count", ErrCorrupt, what)
		}
		body = body[n:]
		return int(v), nil
	}
	for bi := range meta.Blocks {
		nRows, err := uvarint("row")
		if err != nil {
			return nil, err
		}
		b := Block{Lo: meta.Blocks[bi].Lo, Viol: meta.Blocks[bi].Viol, Reporting: meta.Blocks[bi].Reporting}
		b.Rows = make([][]float64, nRows)
		// The block's present rows are capped views of one slab, sized at
		// the first of them for every row left that the remaining bytes can
		// hold at its width.
		var slab []float64
		width := 0
		for i := 0; i < nRows; i++ {
			cells, err := uvarint("cell")
			if err != nil {
				return nil, err
			}
			if cells == 0 {
				continue
			}
			if len(body) < cells*8 {
				return nil, fmt.Errorf("%w: v4 rows truncated", ErrCorrupt)
			}
			if width == 0 {
				width = cells
				slab = make([]float64, min(nRows-i, len(body)/(8*cells))*cells)
			}
			var row []float64
			if cells == width {
				row, slab = slab[:cells:cells], slab[cells:]
			} else {
				row = make([]float64, cells) // checkRowWidths refuses the frame below
			}
			for c := range row {
				row[c] = math.Float64frombits(binary.LittleEndian.Uint64(body[c*8:]))
			}
			body = body[cells*8:]
			b.Rows[i] = row
		}
		f.Blocks = append(f.Blocks, b)
	}

	if len(body) < 1 || body[0] != rowWidthMarker {
		return nil, fmt.Errorf("%w: v4 payload missing its row-width trailer", ErrCorrupt)
	}
	// Nothing follows the width, so it is bounded against a sane
	// metric-catalog ceiling rather than the remaining bytes.
	nm, n := binary.Uvarint(body[1:])
	if n <= 0 || nm > 1<<20 {
		return nil, fmt.Errorf("%w: v4 row width", ErrCorrupt)
	}
	f.NumMetrics = int(nm)
	if err := f.checkRowWidths(); err != nil {
		return nil, fmt.Errorf("%w: v4 %v", ErrCorrupt, err)
	}
	return f, nil
}

// readAtMost reads r to EOF into one buffer pre-sized to min(sizeHint, 1 MiB)
// + bytes.MinRead that grows only once full, so an overstated hint costs at
// most 1 MiB. It reads no more than limit+1 bytes: a result longer than limit
// means r held more than limit.
func readAtMost(r io.Reader, sizeHint, limit int64) ([]byte, error) {
	buf := make([]byte, 0, min(max(sizeHint, 0), 1<<20)+bytes.MinRead)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		room := buf[len(buf):cap(buf)]
		if left := limit + 1 - int64(len(buf)); int64(len(room)) > left {
			room = room[:left]
		}
		n, err := r.Read(room)
		buf = buf[:len(buf)+n]
		if err == io.EOF || int64(len(buf)) > limit {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Ack is the coordinator's reply to a shipped frame.
type Ack struct {
	// OK reports the frame was accepted (stored or already obsolete).
	OK bool
	// Error carries the rejection reason when OK is false.
	Error string
	// Stale reports the frame's epoch was below the merge watermark: the
	// epoch has already been merged (with this shard synthesized as
	// non-reporting), so the sender should advance rather than resend.
	Stale bool
	// Throttle reports the frame ran too far ahead of the watermark; the
	// sender should back off and resend the same frame.
	Throttle bool
	// Watermark is the next epoch the coordinator will merge.
	Watermark metrics.Epoch
	// Assignment is attached when the sender's AssignVersion is stale (or
	// it asked for one); senders adopt it before building the next frame.
	Assignment *Assignment
}

// Encode serializes the ack with the same header as frames (gob payload —
// acks are tiny and latency-insensitive). The gob buffer is pooled; the
// returned slice is freshly allocated at exact size.
func (a *Ack) Encode() ([]byte, error) {
	gb := gobBufPool.Get().(*bytes.Buffer)
	defer gobBufPool.Put(gb)
	gb.Reset()
	gb.Write(make([]byte, headerLen))
	if err := gob.NewEncoder(gb).Encode(a); err != nil {
		return nil, fmt.Errorf("fleet: ack encode: %w", err)
	}
	out := append([]byte(nil), gb.Bytes()...)
	sealHeader(out)
	return out, nil
}

// DecodeAck parses a coordinator reply.
func DecodeAck(data []byte) (*Ack, error) {
	rest, err := checkHeader(data)
	if err != nil {
		return nil, err
	}
	var a Ack
	if err := gob.NewDecoder(bytes.NewReader(rest)).Decode(&a); err != nil {
		return nil, fmt.Errorf("%w: ack gob decode: %v", ErrCorrupt, err)
	}
	return &a, nil
}

// sealHeader stamps magic, version, and the payload checksum into the
// headerLen bytes reserved at the front of buf.
func sealHeader(buf []byte) []byte {
	copy(buf, frameMagic)
	binary.BigEndian.PutUint32(buf[len(frameMagic):], frameVersion)
	binary.BigEndian.PutUint32(buf[len(frameMagic)+4:], crc32.ChecksumIEEE(buf[headerLen:]))
	return buf
}

func checkHeader(data []byte) ([]byte, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the %d-byte header", ErrCorrupt, len(data), headerLen)
	}
	if !bytes.Equal(data[:len(frameMagic)], []byte(frameMagic)) {
		return nil, fmt.Errorf("fleet: not a fleet frame (bad magic)")
	}
	if v := binary.BigEndian.Uint32(data[len(frameMagic):]); v != frameVersion {
		return nil, fmt.Errorf("fleet: frame version %d, want %d", v, frameVersion)
	}
	payload := data[headerLen:]
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(data[len(frameMagic)+4:]); got != want {
		return nil, fmt.Errorf("%w: payload checksum %08x, header says %08x", ErrCorrupt, got, want)
	}
	return payload, nil
}
