package monitor

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dcfp/internal/core"
	"dcfp/internal/ident"
	"dcfp/internal/metrics"
)

// Checkpoint/restore for the Monitor, so a crashed or restarted dcfpd
// resumes where it left off instead of relearning thresholds and forgetting
// every fingerprint. A checkpoint is a versioned, atomically written
// snapshot of the monitor's independent state:
//
//   - the quantile track, one row per observed epoch, and the per-epoch
//     crisis and degraded flags beside it
//   - the hot/cold thresholds, their age and generation
//   - every crisis record, oldest first: start, label, metric ranking,
//     votes, audit records, the feature-selection samples of an unfinalized
//     crisis and, for a stored crisis, the epoch it closed at, which with
//     its start delimits its window of the track
//   - the crisis state machine's rest: whether the newest crisis is open
//     (ActiveIdx) and the calm counter
//   - the pre-crisis ring, each slot with the epoch it holds (RingEpoch)
//   - the coverage denominator and the last coverage
//   - the forecast stage's state
//
// Everything else is recomputed on restore: the next epoch's index is the
// track's length; a crisis's ID is crisisID of its index plus one; the open
// crisis's start is its record's; the carry-forward summary is the track's
// last row; the degraded-epoch count is the number of degraded flags. The
// aggregator's estimators are empty at every epoch boundary (summarizing
// drains them), and the stored crises' fingerprint memos and identify's
// threshold memo are memoizations that repopulate after restore.
//
// Checkpoints written before these values were recomputed also carry Epoch,
// LastSummary, DegradedCount, NextID, ActiveStart and each crisis's ID; gob
// skips fields the payload lacks, so they restore under version 1.
//
// A checkpoint restores byte-identically: replaying the same epochs through
// the restored monitor yields the same reports and advice as an
// uninterrupted run.

// checkpointMagic and checkpointVersion head every checkpoint file. The
// version is bumped whenever checkpointPayload changes incompatibly;
// ReadCheckpoint refuses versions it does not understand rather than
// guessing at field layouts.
const checkpointMagic = "DCFPCKPT"
const checkpointVersion uint32 = 1

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

// checkpointCrisis mirrors pastCrisis with exported fields. Votes and Expl
// were added after version 1 shipped; gob tolerates the asymmetry in both
// directions (old checkpoints restore with empty audit state), so the
// version stays 1. Closed replaced the payload's Store later: checkpoints
// that carry a Store lack it, and legacyStore supplies it.
type checkpointCrisis struct {
	Label  string
	Start  metrics.Epoch
	Closed metrics.Epoch
	FsX    [][]float64
	FsY    []int
	Top    []int
	Votes  []string
	Expl   []*ident.Explanation
}

// checkpointPayload is the gob image of the Monitor's independent state.
type checkpointPayload struct {
	InCrisis []bool
	Degraded []bool
	Track    *metrics.QuantileTrack
	// HasThresh says whether Thresholds holds any. A pointer cannot say it
	// instead: files written without thresholds carry an empty Thresholds
	// struct, which would decode into a non-nil pointer.
	HasThresh  bool
	Thresholds metrics.Thresholds
	LastThresh metrics.Epoch
	ThGen      uint64

	// Checkpoints from older builds also carry LastSeen, a per-machine
	// last-reporting-epoch table; gob skips fields the struct lacks, so
	// they restore under version 1.
	Expected     int
	LastCoverage float64

	// Store is only ever read: checkpoints written while the monitor kept a
	// separate crisis store carry it, and a build that refuses a payload
	// without one refuses this build's checkpoints.
	Store *legacyStore
	Past  []checkpointCrisis

	RawRing   [][][]float64
	ViolRing  [][]bool
	RingEpoch []metrics.Epoch
	RingPos   int

	// ActiveIdx is len(Past)-1 while the newest crisis is open, else -1.
	ActiveIdx int
	Calm      int

	// Forecast is the early-warning stage's state; nil when the stage is
	// disabled or the checkpoint predates it. Added after version 1
	// shipped, same gob-tolerated asymmetry as Votes/Expl above.
	Forecast *forecastState
}

type checkpointFile struct {
	Meta  CheckpointMeta
	State checkpointPayload
}

// WriteCheckpoint serializes the monitor's mutable state to w.
func (m *Monitor) WriteCheckpoint(w io.Writer, meta CheckpointMeta) error {
	hdr := make([]byte, len(checkpointMagic)+4)
	copy(hdr, checkpointMagic)
	binary.BigEndian.PutUint32(hdr[len(checkpointMagic):], checkpointVersion)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("monitor: checkpoint header: %w", err)
	}
	f := checkpointFile{
		Meta: meta,
		State: checkpointPayload{
			InCrisis:     m.inCrisis,
			Degraded:     m.degraded,
			Track:        m.track,
			HasThresh:    m.thresholds != nil,
			LastThresh:   m.lastThresh,
			ThGen:        m.thGen,
			Expected:     m.expected,
			LastCoverage: m.lastCoverage,
			RawRing:      make([][][]float64, len(m.ring)),
			ViolRing:     make([][]bool, len(m.ring)),
			RingEpoch:    make([]metrics.Epoch, len(m.ring)),
			RingPos:      m.ringPos,
			ActiveIdx:    -1,
			Calm:         m.calm,
			Forecast:     m.fc.checkpoint(),
		},
	}
	if m.active() != nil {
		f.State.ActiveIdx = len(m.past) - 1
	}
	// The ring is kept metric-major; the checkpoint stores each slot's
	// reporting machines as rows, the layout it has always had.
	for i, slot := range m.ring {
		if slot != nil {
			f.State.RawRing[i], f.State.ViolRing[i] = slot.rows(m.cfg.Catalog.Len())
			f.State.RingEpoch[i] = slot.epoch
		}
	}
	if m.thresholds != nil {
		f.State.Thresholds = *m.thresholds
	}
	for i := range m.past {
		p := &m.past[i]
		x, y := p.fs.Rows()
		f.State.Past = append(f.State.Past, checkpointCrisis{
			Label: p.label, Start: p.start, Closed: p.closed,
			FsX: x, FsY: y, Top: p.top,
			Votes: p.votes, Expl: m.explanations(p),
		})
	}
	if err := gob.NewEncoder(w).Encode(&f); err != nil {
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
	if v := binary.BigEndian.Uint32(hdr[len(checkpointMagic):]); v != checkpointVersion {
		return CheckpointMeta{}, fmt.Errorf("monitor: checkpoint version %d, want %d", v, checkpointVersion)
	}
	var f checkpointFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return CheckpointMeta{}, fmt.Errorf("monitor: checkpoint decode: %w", err)
	}
	s := &f.State
	if err := s.Store.setClosed(s.Past); err != nil {
		return CheckpointMeta{}, err
	}
	if err := m.validatePayload(s); err != nil {
		return CheckpointMeta{}, err
	}
	past := make([]pastCrisis, len(s.Past))
	for i, p := range s.Past {
		fs, err := core.CrisisSamples{X: p.FsX, Y: p.FsY}.Buffer()
		if err != nil {
			return CheckpointMeta{}, fmt.Errorf("monitor: checkpoint crisis %d: %w", i, err)
		}
		past[i] = pastCrisis{
			id: crisisID(i + 1), label: p.Label, start: p.Start, open: i == s.ActiveIdx, closed: p.Closed,
			fs: *fs, top: p.Top, votes: p.Votes,
		}
		for _, e := range p.Expl {
			past[i].expl = append(past[i].expl, keptExplanation{e: e})
		}
	}

	m.inCrisis = s.InCrisis
	m.degraded = s.Degraded
	m.track = s.Track
	if s.HasThresh {
		th := s.Thresholds
		m.thresholds = &th
	} else {
		m.thresholds = nil
	}
	m.lastThresh = s.LastThresh
	m.thGen = s.ThGen
	m.lastSummary = nil
	if n := s.Track.NumEpochs(); n > 0 {
		row, _ := s.Track.EpochRow(metrics.Epoch(n - 1))
		m.lastSummary = make([][3]float64, len(row)/metrics.NumQuantiles)
		for j := range m.lastSummary {
			copy(m.lastSummary[j][:], row[j*metrics.NumQuantiles:])
		}
	}
	m.expected = s.Expected
	m.degradedCount = 0
	for _, d := range s.Degraded {
		if d {
			m.degradedCount++
		}
	}
	m.lastCoverage = s.LastCoverage
	m.past = past
	// An empty slot was never filled (gob turns nil inner slices into empty
	// ones).
	for i, rows := range s.RawRing {
		m.ring[i] = nil
		if len(rows) > 0 {
			m.ring[i] = samplesFromRows(rows, s.ViolRing[i], m.cfg.Catalog.Len())
			m.ring[i].epoch = s.RingEpoch[i]
		}
	}
	m.ringPos = s.RingPos
	m.calm = s.Calm
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
	if s.HasThresh && (len(s.Thresholds.Cold) != width || len(s.Thresholds.Hot) != width) {
		return fmt.Errorf("monitor: checkpoint thresholds width (%d, %d), catalog %d",
			len(s.Thresholds.Cold), len(s.Thresholds.Hot), width)
	}
	// Only the newest crisis can be open: anything else would re-open, and
	// store a second time, a finalized one.
	if s.ActiveIdx != -1 && s.ActiveIdx != len(s.Past)-1 {
		return fmt.Errorf("monitor: checkpoint active index %d with %d past crises", s.ActiveIdx, len(s.Past))
	}
	if len(s.RawRing) != m.cfg.RawPad || len(s.ViolRing) != m.cfg.RawPad || len(s.RingEpoch) != m.cfg.RawPad {
		return fmt.Errorf("monitor: checkpoint ring size (%d, %d, %d), RawPad %d",
			len(s.RawRing), len(s.ViolRing), len(s.RingEpoch), m.cfg.RawPad)
	}
	if s.RingPos < 0 || s.RingPos >= m.cfg.RawPad {
		return fmt.Errorf("monitor: checkpoint ring position %d out of [0, %d)", s.RingPos, m.cfg.RawPad)
	}
	// A slot's rows and violation flags are appended to a crisis's samples
	// together, one label per row.
	for i, rows := range s.RawRing {
		if len(s.ViolRing[i]) != len(rows) {
			return fmt.Errorf("monitor: checkpoint ring slot %d has %d violation flags for %d rows",
				i, len(s.ViolRing[i]), len(rows))
		}
	}
	// Sample rows (collected, or still in the ring) all become blocks of one
	// catalog-wide buffer.
	sampleRows := append([][][]float64(nil), s.RawRing...)
	for i, p := range s.Past {
		id := crisisID(i + 1)
		// A stored crisis closed after it started and before the snapshot;
		// the open crisis is not stored yet.
		if p.Closed != -1 && (i == s.ActiveIdx || p.Closed < p.Start || int(p.Closed) >= epochs) {
			return fmt.Errorf("monitor: checkpoint crisis %s starts at %d, closed at %d, %d tracked epochs (active %v)",
				id, p.Start, p.Closed, epochs, i == s.ActiveIdx)
		}
		// Every relevant-set computation reads the ranking as catalog
		// columns; one outside the catalog would fail each of them.
		for _, c := range p.Top {
			if c < 0 || c >= width {
				return fmt.Errorf("monitor: checkpoint crisis %s ranks metric %d, catalog %d", id, c, width)
			}
		}
		if len(p.FsX) != len(p.FsY) {
			return fmt.Errorf("monitor: checkpoint crisis %s samples misaligned (%d rows, %d labels)",
				id, len(p.FsX), len(p.FsY))
		}
		sampleRows = append(sampleRows, p.FsX)
	}
	for _, rows := range sampleRows {
		for _, row := range rows {
			if len(row) != width {
				return fmt.Errorf("monitor: checkpoint sample row width %d, catalog %d", len(row), width)
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
	var lastErr error
	for attempt := 0; ; attempt++ {
		lastErr = writeFileAtomic(final, buf.Bytes())
		if lastErr == nil {
			return final, nil
		}
		if attempt >= retries {
			break
		}
		time.Sleep(backoff)
	}
	return "", fmt.Errorf("monitor: checkpoint save after %d attempts: %w", retries+1, lastErr)
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
	if err != nil {
		return CheckpointMeta{}, false, err
	}
	return meta, true, nil
}

// legacyStore reads the crisis store that checkpoints carried while the
// monitor kept one beside its crisis records: per stored crisis, its ID and
// the track rows of its summary window, as many as had been observed when
// it closed. The rows are the track's own, which the checkpoint also holds.
type legacyStore struct {
	rows map[string]int // crisis ID → window rows
}

// GobEncode refuses: a checkpoint is written without a store (gob skips the
// nil field), and the method only lets the payload type encode.
func (s *legacyStore) GobEncode() ([]byte, error) {
	return nil, errors.New("monitor: the legacy crisis store is read-only")
}

// GobDecode decodes the store's gob image, keeping each crisis's row count.
func (s *legacyStore) GobDecode(p []byte) error {
	var g struct {
		Crises []struct {
			ID   string
			Rows [][]float64
		}
	}
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&g); err != nil {
		return fmt.Errorf("monitor: checkpoint crisis store: %w", err)
	}
	s.rows = make(map[string]int, len(g.Crises))
	for _, c := range g.Crises {
		s.rows[c.ID] = len(c.Rows)
	}
	return nil
}

// setClosed sets each crisis record's Closed from the store, which names a
// record by its ID, crisisID of its index plus one: -1 for a crisis the store
// lacks, else the last epoch of its stored window, which bounds
// the window exactly as the epoch it closed at did. A nil store (a
// checkpoint without one) leaves past as decoded.
func (s *legacyStore) setClosed(past []checkpointCrisis) error {
	if s == nil {
		return nil
	}
	found := 0
	for i := range past {
		p := &past[i]
		id := crisisID(i + 1)
		n, ok := s.rows[id]
		p.Closed = -1
		if !ok {
			continue
		}
		found++
		if n < 1 || n > summaryRange.Len() {
			return fmt.Errorf("monitor: checkpoint stores crisis %s with %d rows", id, n)
		}
		p.Closed = max(0, p.Start-metrics.Epoch(summaryRange.Before)) + metrics.Epoch(n) - 1
	}
	if found != len(s.rows) {
		return fmt.Errorf("monitor: checkpoint stores %d crises without a record", len(s.rows)-found)
	}
	return nil
}
