package monitor

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dcfp/internal/ident"
	"dcfp/internal/metrics"
)

// Checkpoint/restore for the Monitor, so a crashed or restarted dcfpd
// resumes where it left off instead of relearning thresholds and forgetting
// every fingerprint. A checkpoint is a versioned, atomically written gob image
// of the monitor's independent state in the shape the monitor holds it,
// checkpointPayload. Everything else is recomputed on restore: the next
// epoch's index is the track's length; a crisis's ID is crisisID of its index
// plus one; the open crisis's start is its record's; the carry-forward
// summary is the track's last row; the degraded-epoch count is the number of
// degraded flags. The aggregator's estimators are empty at every epoch
// boundary, and the fingerprint and threshold memos repopulate after
// restore. Version-1 files, which older builds wrote, restore through
// checkpoint_v1.go. Replaying the same epochs through a restored monitor
// yields the same reports and advice as an uninterrupted run.

// checkpointMagic and checkpointVersion head every checkpoint file. The
// version is bumped whenever checkpointPayload changes incompatibly;
// ReadCheckpoint refuses versions it does not understand rather than
// guessing at field layouts.
const checkpointMagic = "DCFPCKPT"
const checkpointVersion uint32 = 2

// CheckpointFileName is the name SaveCheckpoint writes inside its directory.
const CheckpointFileName = "monitor.ckpt"

// CheckpointMeta rides alongside the monitor state: the daemon records
// which source epoch the snapshot covers plus any of its own state (gob
// bytes in Extra, e.g. cmd/dcfpd's pending-resolution queue and ingestor
// sequencing state).
type CheckpointMeta struct {
	// SourceEpoch is the last source-stream epoch ingested before the
	// snapshot (-1 when the writer does not track source epochs).
	SourceEpoch int64
	// Extra is an opaque writer-owned blob restored verbatim.
	Extra []byte
}

// checkpointPayload is the gob image of the Monitor's independent state.
type checkpointPayload struct {
	InCrisis   []bool
	Degraded   []bool
	Track      *metrics.QuantileTrack
	Thresholds *metrics.Thresholds
	LastThresh metrics.Epoch
	ThGen      uint64

	Expected     int
	LastCoverage float64

	// Crises holds every crisis record, oldest first. Open says the newest
	// is open; Samples holds its feature-selection samples, the only ones a
	// crisis keeps.
	Crises  []savedCrisis
	Open    bool
	Samples sampleBlock
	Calm    int

	Ring    []sampleBlock // a slot never filled holds no machine
	RingPos int

	Forecast *forecastState // nil when the stage is disabled
}

// savedCrisis is one crisis record with its audit records, rebuilt on write.
type savedCrisis struct {
	State crisisState
	Expl  []*ident.Explanation
}

// sampleBlock is retained machine samples as epochSamples.samples compacts
// them: X[j*len(Viol)+i] is machine i's metric j, Viol[i] its violation
// flag. Epoch is the epoch a ring slot holds.
type sampleBlock struct {
	Epoch metrics.Epoch
	X     []float64
	Viol  []bool
}

type checkpointFile struct {
	Meta  CheckpointMeta
	State checkpointPayload
}

// WriteCheckpoint serializes the monitor's mutable state to w.
func (m *Monitor) WriteCheckpoint(w io.Writer, meta CheckpointMeta) error {
	hdr := binary.BigEndian.AppendUint32([]byte(checkpointMagic), checkpointVersion)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("monitor: checkpoint header: %w", err)
	}
	s := checkpointPayload{
		InCrisis: m.inCrisis, Degraded: m.degraded, Track: m.track,
		Thresholds: m.thresholds, LastThresh: m.lastThresh, ThGen: m.thGen,
		Expected: m.expected, LastCoverage: m.lastCoverage,
		Crises: make([]savedCrisis, len(m.past)), Calm: m.calm,
		Ring: make([]sampleBlock, len(m.ring)), RingPos: m.ringPos,
		Forecast: m.fc.checkpoint(),
	}
	for i := range m.past {
		s.Crises[i] = savedCrisis{m.past[i].crisisState, m.explanations(&m.past[i])}
	}
	if p := m.active(); p != nil {
		s.Open = true
		s.Samples.X, s.Samples.Viol = p.fs.Block()
	}
	for i, slot := range m.ring {
		if slot != nil {
			x, viol := slot.samples(m.cfg.Catalog.Len(), nil)
			s.Ring[i] = sampleBlock{slot.epoch, x, viol}
		}
	}
	if err := gob.NewEncoder(w).Encode(&checkpointFile{meta, s}); err != nil {
		return fmt.Errorf("monitor: checkpoint encode: %w", err)
	}
	return nil
}

// ReadCheckpoint restores monitor state from r into m, which must have been
// built with New using the same Config (catalog width). The payload is
// validated before any field of m is touched: a truncated, corrupt or
// version-mismatched checkpoint leaves m unchanged so the caller can log and
// start cold.
func (m *Monitor) ReadCheckpoint(r io.Reader) (CheckpointMeta, error) {
	hdr := make([]byte, len(checkpointMagic)+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return CheckpointMeta{}, fmt.Errorf("monitor: checkpoint header: %w", err)
	}
	if !bytes.Equal(hdr[:len(checkpointMagic)], []byte(checkpointMagic)) {
		return CheckpointMeta{}, fmt.Errorf("monitor: not a checkpoint file (bad magic)")
	}
	var f checkpointFile
	var err error
	switch v := binary.BigEndian.Uint32(hdr[len(checkpointMagic):]); v {
	case checkpointVersion:
		if err = gob.NewDecoder(r).Decode(&f); err != nil {
			err = fmt.Errorf("monitor: checkpoint decode: %w", err)
		}
	case 1:
		f, err = readV1(r)
	default:
		err = fmt.Errorf("monitor: checkpoint version %d, want %d", v, checkpointVersion)
	}
	if err != nil {
		return CheckpointMeta{}, err
	}
	s := &f.State
	if err := m.validatePayload(s); err != nil {
		return CheckpointMeta{}, err
	}

	past := make([]pastCrisis, len(s.Crises))
	for i, c := range s.Crises {
		past[i] = pastCrisis{crisisState: c.State, id: crisisID(i + 1)}
		for _, e := range c.Expl {
			past[i].expl = append(past[i].expl, keptExplanation{e: e})
		}
	}
	if s.Open {
		p := &past[len(past)-1]
		p.open = true
		// validatePayload checked the one error, a block of another shape.
		_ = p.fs.AppendBlock(s.Samples.X, s.Samples.Viol)
	}
	m.inCrisis, m.degraded, m.track = s.InCrisis, s.Degraded, s.Track
	m.thresholds, m.lastThresh, m.thGen = s.Thresholds, s.LastThresh, s.ThGen
	m.expected, m.lastCoverage, m.past, m.calm = s.Expected, s.LastCoverage, past, s.Calm
	m.lastSummary = nil
	if n := s.Track.NumEpochs(); n > 0 {
		row, _ := s.Track.EpochRow(metrics.Epoch(n - 1))
		m.lastSummary = make([][3]float64, len(row)/metrics.NumQuantiles)
		for j := range m.lastSummary {
			copy(m.lastSummary[j][:], row[j*metrics.NumQuantiles:])
		}
	}
	m.degradedCount = 0
	for _, d := range s.Degraded {
		if d {
			m.degradedCount++
		}
	}
	for i, b := range s.Ring {
		m.ring[i] = restoredSlot(b)
	}
	m.ringPos = s.RingPos
	m.fc.restore(s.Forecast)
	m.thrMemo = thresholdMemo{}
	return f.Meta, nil
}

// validatePayload sanity-checks a decoded checkpoint against the monitor's
// configuration before it replaces any state.
func (m *Monitor) validatePayload(s *checkpointPayload) error {
	width := m.cfg.Catalog.Len()
	if s.Track == nil {
		return fmt.Errorf("monitor: checkpoint has no quantile track")
	}
	if s.Track.NumMetrics() != width {
		return fmt.Errorf("monitor: checkpoint track width %d, catalog %d", s.Track.NumMetrics(), width)
	}
	epochs := s.Track.NumEpochs()
	if len(s.InCrisis) != epochs || len(s.Degraded) != epochs {
		return fmt.Errorf("monitor: checkpoint flag lengths (%d, %d) disagree with %d tracked epochs",
			len(s.InCrisis), len(s.Degraded), epochs)
	}
	if th := s.Thresholds; th != nil && (len(th.Cold) != width || len(th.Hot) != width) {
		return fmt.Errorf("monitor: checkpoint thresholds width (%d, %d), catalog %d", len(th.Cold), len(th.Hot), width)
	}
	// Only an open crisis holds samples, and it is the newest record.
	if s.Open && len(s.Crises) == 0 || !s.Open && len(s.Samples.Viol) > 0 {
		return fmt.Errorf("monitor: checkpoint open %v with %d crises and %d samples", s.Open, len(s.Crises), len(s.Samples.Viol))
	}
	if len(s.Ring) != m.cfg.RawPad {
		return fmt.Errorf("monitor: checkpoint ring size %d, RawPad %d", len(s.Ring), m.cfg.RawPad)
	}
	if s.RingPos < 0 || s.RingPos >= m.cfg.RawPad {
		return fmt.Errorf("monitor: checkpoint ring position %d out of [0, %d)", s.RingPos, m.cfg.RawPad)
	}
	// Every sample block (a ring slot, the open crisis's samples) becomes a
	// block of one catalog-wide buffer, one violation flag per machine.
	for i, b := range append(s.Ring[:len(s.Ring):len(s.Ring)], s.Samples) {
		if len(b.X) != width*len(b.Viol) {
			return fmt.Errorf("monitor: checkpoint sample block %d holds %d values for %d machines, catalog %d",
				i, len(b.X), len(b.Viol), width)
		}
	}
	for i, c := range s.Crises {
		id, open := crisisID(i+1), s.Open && i == len(s.Crises)-1
		// A stored crisis closed after it started and before the snapshot;
		// the open crisis is not stored yet.
		if p := c.State; p.Closed != -1 && (open || p.Closed < p.Start || int(p.Closed) >= epochs) {
			return fmt.Errorf("monitor: checkpoint crisis %s starts at %d, closed at %d, %d tracked epochs (open %v)",
				id, p.Start, p.Closed, epochs, open)
		}
		// Every relevant-set computation reads the ranking as catalog
		// columns; one outside the catalog would fail each of them.
		for _, j := range c.State.Top {
			if j < 0 || j >= width {
				return fmt.Errorf("monitor: checkpoint crisis %s ranks metric %d, catalog %d", id, j, width)
			}
		}
	}
	return nil
}

// SaveCheckpoint atomically writes the monitor's checkpoint into dir as
// CheckpointFileName: the snapshot goes to a temp file first, is synced,
// and then renamed over the previous checkpoint, so a crash mid-write
// leaves the old checkpoint intact. Transient failures are retried up to
// retries times with the given backoff between attempts (the serialized
// snapshot is built once; only the filesystem steps retry).
func (m *Monitor) SaveCheckpoint(dir string, meta CheckpointMeta, retries int, backoff time.Duration) (string, error) {
	var buf bytes.Buffer
	if err := m.WriteCheckpoint(&buf, meta); err != nil {
		return "", err
	}
	final := filepath.Join(dir, CheckpointFileName)
	err := writeFileAtomic(final, buf.Bytes())
	for attempt := 0; err != nil && attempt < retries; attempt++ {
		time.Sleep(backoff)
		err = writeFileAtomic(final, buf.Bytes())
	}
	if err != nil {
		return "", fmt.Errorf("monitor: checkpoint save after %d attempts: %w", retries+1, err)
	}
	return final, nil
}

func writeFileAtomic(final string, data []byte) error {
	dir := filepath.Dir(final)
	tmp, err := os.CreateTemp(dir, CheckpointFileName+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmpName, final)
}

// LoadCheckpoint restores the monitor from dir's checkpoint file. ok is
// false when no checkpoint exists (a cold start, not an error); a present
// but unreadable/corrupt checkpoint returns an error with the monitor
// untouched, letting the caller decide to start cold.
func LoadCheckpoint(dir string, m *Monitor) (meta CheckpointMeta, ok bool, err error) {
	f, err := os.Open(filepath.Join(dir, CheckpointFileName))
	if os.IsNotExist(err) {
		return CheckpointMeta{}, false, nil
	}
	if err != nil {
		return CheckpointMeta{}, false, err
	}
	defer f.Close()
	meta, err = m.ReadCheckpoint(f)
	return meta, err == nil, err
}
