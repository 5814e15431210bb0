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
// a gob-encoded metadata section (everything except the bulk cells), a
// fixed-width little-endian column section, and a two-field trailer declaring
// the row width. A shard's quantile contribution is its reporting machines'
// cells, by metric column: the coordinator filters each column into its own
// estimator in one pass. Bodies above frameCompressThreshold are
// flate-compressed.
const frameMagic = "DCFPFLT1"
const frameVersion uint32 = 5

// headerLen is magic + version + payload CRC32 (IEEE).
const headerLen = len(frameMagic) + 4 + 4

// ErrCorrupt marks a payload that was damaged in flight — truncated below
// the header, failing its checksum, or passing the checksum yet failing gob
// decode or structural validation. The coordinator counts these separately
// from protocol rejections (errors.Is-matchable).
var ErrCorrupt = errors.New("fleet: corrupt frame")

// Block is one contiguous machine slice of a frame, machines [Lo,
// Lo+len(Reporting)): after a rebalance a shard may own several disjoint
// ranges, each shipped as its own block. Cols holds the raw samples of the
// block's reporting machines metric-major — with n reporting machines,
// metric m's n values, in machine order, are Cols[m*n:(m+1)*n] — so it is
// NumMetrics × n long. A machine that delivered nothing, or no finite value,
// ships no cells: the coordinator never reads them.
type Block struct {
	Lo        int
	Viol      []bool
	Reporting []bool
	Cols      []float64
}

// reportingCount is the number of machines a block ships cells for.
func (b *Block) reportingCount() int {
	n := 0
	for _, r := range b.Reporting {
		if r {
			n++
		}
	}
	return n
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
	// NumMetrics is the catalog width: every block ships exactly this many
	// columns (Encode and DecodeFrame both check).
	NumMetrics int
	Blocks     []Block
	// Status is the shard's partial SLA status over all its blocks.
	Status sla.EpochStatus
	// Dropped counts the non-finite cells of the shard's rows, including the
	// rows of the non-reporting machines it shipped no cells for.
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

	// slab is the pooled storage a decoded frame's columns are views of
	// (nil for a frame built in process); Release hands it back.
	slab *[]float64
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

// frameMetaV4 is the gob-encoded metadata section of a frame: every Frame
// field except Block.Cols and NumMetrics, which get binary layouts of their
// own. gob puts the type names on the wire, so renaming either struct would
// change every frame's bytes.
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

// gobBufPool pools the bytes.Buffer behind gob sub-encodes (frame metadata,
// acks).
var gobBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Encode serializes the frame as magic + version + CRC32 + binary payload.
// The returned slice is allocated once, at the frame's exact size (a body
// that flate shrinks keeps that buffer). A block whose Cols is not
// NumMetrics × its reporting machines long is an error.
func (f *Frame) Encode() ([]byte, error) {
	if err := f.checkColumns(); err != nil {
		return nil, fmt.Errorf("fleet: frame encode: %w", err)
	}
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
	cells := 0
	for i := range f.Blocks {
		b := &f.Blocks[i]
		meta.Blocks = append(meta.Blocks, blockMetaV4{Lo: b.Lo, Viol: b.Viol, Reporting: b.Reporting})
		cells += len(b.Cols)
	}
	gb := gobBufPool.Get().(*bytes.Buffer)
	defer gobBufPool.Put(gb)
	gb.Reset()
	if err := gob.NewEncoder(gb).Encode(&meta); err != nil {
		return nil, fmt.Errorf("fleet: frame encode: %w", err)
	}
	size := headerLen + 1 + uvarintLen(uint64(gb.Len())) + gb.Len() + 8*cells + 1 + uvarintLen(uint64(f.NumMetrics))
	buf := make([]byte, headerLen+1, size) // header and flags, patched below
	buf = binary.AppendUvarint(buf, uint64(gb.Len()))
	buf = append(buf, gb.Bytes()...)

	// Column section: every block's Cols, in block order, as raw float bits
	// fixed-width little-endian.
	out := buf[len(buf) : len(buf)+8*cells]
	for i := range f.Blocks {
		cols := f.Blocks[i].Cols
		putFloats(out, cols)
		out = out[8*len(cols):]
	}
	buf = buf[:len(buf)+8*cells]

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
	return sealHeader(buf), nil
}

// putFloats writes the bits of vs little-endian into out, 8 bytes each.
// Eight values a step through fixed-length views let the compiler drop the
// per-value bounds checks: about 3× the one-value loop.
func putFloats(out []byte, vs []float64) {
	for ; len(vs) >= 8; vs, out = vs[8:], out[64:] {
		v, o := vs[:8], out[:64]
		binary.LittleEndian.PutUint64(o[0:], math.Float64bits(v[0]))
		binary.LittleEndian.PutUint64(o[8:], math.Float64bits(v[1]))
		binary.LittleEndian.PutUint64(o[16:], math.Float64bits(v[2]))
		binary.LittleEndian.PutUint64(o[24:], math.Float64bits(v[3]))
		binary.LittleEndian.PutUint64(o[32:], math.Float64bits(v[4]))
		binary.LittleEndian.PutUint64(o[40:], math.Float64bits(v[5]))
		binary.LittleEndian.PutUint64(o[48:], math.Float64bits(v[6]))
		binary.LittleEndian.PutUint64(o[56:], math.Float64bits(v[7]))
	}
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
}

// getFloats is putFloats' inverse: vs[i] from the 8 bytes at in[8*i:].
func getFloats(vs []float64, in []byte) {
	for ; len(vs) >= 8; vs, in = vs[8:], in[64:] {
		v, b := vs[:8], in[:64]
		v[0] = math.Float64frombits(binary.LittleEndian.Uint64(b[0:]))
		v[1] = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		v[2] = math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
		v[3] = math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
		v[4] = math.Float64frombits(binary.LittleEndian.Uint64(b[32:]))
		v[5] = math.Float64frombits(binary.LittleEndian.Uint64(b[40:]))
		v[6] = math.Float64frombits(binary.LittleEndian.Uint64(b[48:]))
		v[7] = math.Float64frombits(binary.LittleEndian.Uint64(b[56:]))
	}
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]))
	}
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// checkColumns reports the first block whose shape the decoder would refuse.
func (f *Frame) checkColumns() error {
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		if len(b.Viol) != len(b.Reporting) {
			return fmt.Errorf("block %d: viol/reporting lengths %d/%d disagree", bi, len(b.Viol), len(b.Reporting))
		}
		if n := b.reportingCount(); len(b.Cols) != n*f.NumMetrics {
			return fmt.Errorf("block %d has %d cells for %d reporting machines × %d metrics",
				bi, len(b.Cols), n, f.NumMetrics)
		}
	}
	return nil
}

// DecodeFrame parses a wire frame, validating magic, version, and checksum
// before touching the payload, and the decoded structure before handing it
// on. Every block's columns are views of one slab, taken from a pool that
// Release refills.
func DecodeFrame(data []byte) (*Frame, error) {
	rest, err := checkHeader(data)
	if err != nil {
		return nil, err
	}
	f, err := decodePayload(rest, maxFrameBytes)
	if err != nil {
		return nil, err
	}
	if err := validateFrame(f); err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

// colSlabs pools the slabs decoded frames keep their columns in: a
// coordinator decodes a shard's whole epoch per frame and is done with it
// once the epoch merges, so a steady fleet reuses the same few slabs rather
// than allocating and zeroing one per frame.
var colSlabs sync.Pool

func getSlab(n int) *[]float64 {
	if p, ok := colSlabs.Get().(*[]float64); ok && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	s := make([]float64, n)
	return &s
}

// Release hands the columns of a frame from DecodeFrame back for a later
// decode to reuse. Neither the frame's columns nor any slice of them may be
// read afterwards; the frame's other fields stay valid.
func (f *Frame) Release() {
	if f.slab != nil {
		colSlabs.Put(f.slab)
		f.slab = nil
	}
	for i := range f.Blocks {
		f.Blocks[i].Cols = nil
	}
}

// validateFrame is the structural validation of a decoded frame.
func validateFrame(f *Frame) error {
	if f.Shard < 0 || f.Epoch < 0 || f.Machines <= 0 {
		return fmt.Errorf("%w: shard %d epoch %d machines %d out of range",
			ErrCorrupt, f.Shard, f.Epoch, f.Machines)
	}
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		if len(b.Viol) != len(b.Reporting) {
			return fmt.Errorf("%w: block %d: viol/reporting lengths %d/%d disagree",
				ErrCorrupt, bi, len(b.Viol), len(b.Reporting))
		}
		if b.Lo < 0 || b.Lo+len(b.Reporting) > f.Machines {
			return fmt.Errorf("%w: block %d: range [%d,%d) outside fleet of %d",
				ErrCorrupt, bi, b.Lo, b.Lo+len(b.Reporting), f.Machines)
		}
	}
	return nil
}

// decodePayload parses the binary payload (flags + meta + columns +
// row-width trailer). Every length is derived — the column section from the
// reporting masks and the width the trailer declares — and checked against
// the bytes present before allocation, and a compressed body is inflated no
// further than limit bytes, so corrupted or adversarial frames fail with
// ErrCorrupt instead of outsized allocations.
func decodePayload(payload []byte, limit int64) (*Frame, error) {
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: payload missing flags byte", ErrCorrupt)
	}
	flags, body := payload[0], payload[1:]
	if flags&^byte(frameFlagCompressed) != 0 {
		return nil, fmt.Errorf("%w: payload has unknown flags %#x", ErrCorrupt, flags)
	}
	if flags&frameFlagCompressed != 0 {
		raw, err := readAtMost(flate.NewReader(bytes.NewReader(body)), int64(len(body)), limit)
		if err != nil {
			return nil, fmt.Errorf("%w: decompress: %v", ErrCorrupt, err)
		}
		if int64(len(raw)) > limit {
			return nil, fmt.Errorf("%w: body inflates past %d bytes", ErrCorrupt, limit)
		}
		body = raw
	}

	metaLen, n := binary.Uvarint(body)
	if n <= 0 || metaLen > uint64(len(body)-n) {
		return nil, fmt.Errorf("%w: metadata length", ErrCorrupt)
	}
	body = body[n:]
	var meta frameMetaV4
	if err := gob.NewDecoder(bytes.NewReader(body[:metaLen])).Decode(&meta); err != nil {
		return nil, fmt.Errorf("%w: metadata decode: %v", ErrCorrupt, err)
	}
	body = body[metaLen:]

	// The trailer is the marker byte and the uvarint width, last in the
	// payload: every uvarint byte but the last has its high bit set, and the
	// marker does not, so the trailer reads back from the end.
	end := len(body) - 1
	if end < 1 || body[end]&0x80 != 0 {
		return nil, fmt.Errorf("%w: payload missing its row-width trailer", ErrCorrupt)
	}
	start := end
	for start > 0 && end-start < binary.MaxVarintLen64 && body[start-1]&0x80 != 0 {
		start--
	}
	if start == 0 || body[start-1] != rowWidthMarker {
		return nil, fmt.Errorf("%w: payload missing its row-width trailer", ErrCorrupt)
	}
	// Nothing follows the width, so it is bounded against a sane
	// metric-catalog ceiling rather than the remaining bytes.
	nm, n := binary.Uvarint(body[start:])
	if n != len(body)-start || nm > 1<<20 {
		return nil, fmt.Errorf("%w: row width", ErrCorrupt)
	}
	cells := body[:start-1]

	f := &Frame{
		Shard:         meta.Shard,
		Epoch:         meta.Epoch,
		AssignVersion: meta.AssignVersion,
		Machines:      meta.Machines,
		NumMetrics:    int(nm),
		Status:        meta.Status,
		Dropped:       meta.Dropped,
		Active:        meta.Active,
		TraceID:       meta.TraceID,
		Spans:         meta.Spans,
		Metrics:       meta.Metrics,
	}
	f.Blocks = make([]Block, len(meta.Blocks))
	reporting := uint64(0)
	for bi, bm := range meta.Blocks {
		f.Blocks[bi] = Block{Lo: bm.Lo, Viol: bm.Viol, Reporting: bm.Reporting}
		reporting += uint64(f.Blocks[bi].reportingCount())
	}
	if want := 8 * nm * reporting; uint64(len(cells)) != want {
		return nil, fmt.Errorf("%w: column section of %d bytes, %d reporting machines × %d metrics need %d",
			ErrCorrupt, len(cells), reporting, nm, want)
	}
	f.slab = getSlab(len(cells) / 8)
	slab := *f.slab
	getFloats(slab, cells)
	// Each block's columns are a capped view of the slab, so an append to
	// one block's columns never writes into the next block's.
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		if k := b.reportingCount() * int(nm); k > 0 {
			b.Cols, slab = slab[:k:k], slab[k:]
		}
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
