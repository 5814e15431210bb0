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

	"dcfp/internal/metrics"
	"dcfp/internal/online"
)

// Checkpoint/restore for the Monitor, so a crashed or restarted dcfpd
// resumes where it left off instead of relearning thresholds and forgetting
// every fingerprint. A checkpoint is a versioned, atomically written gob image
// of online.State (DESIGN.md, "Concurrency & caching in the online monitor");
// the shell recomputes its carry-forward summary and degraded count on
// restore. Version-1 files, which older builds wrote, restore through
// checkpoint_v1.go. Replaying the same epochs through a restored monitor
// yields the same reports and advice as an uninterrupted run.

// checkpointMagic and checkpointVersion head every checkpoint file. The
// version is bumped whenever online.State's exported fields change
// incompatibly; ReadCheckpoint refuses versions it does not understand rather
// than guessing at field layouts.
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

type checkpointFile struct {
	Meta  CheckpointMeta
	State *online.State
}

// WriteCheckpoint serializes the monitor's mutable state to w.
func (m *Monitor) WriteCheckpoint(w io.Writer, meta CheckpointMeta) error {
	hdr := binary.BigEndian.AppendUint32([]byte(checkpointMagic), checkpointVersion)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("monitor: checkpoint header: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(&checkpointFile{meta, m.st.Image()}); err != nil {
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
	f := checkpointFile{State: new(online.State)}
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
	if err := m.st.Restore(f.State); err != nil {
		return CheckpointMeta{}, err
	}
	m.lastSummary = nil
	if n := m.st.Track.NumEpochs(); n > 0 {
		row, _ := m.st.Track.EpochRow(metrics.Epoch(n - 1))
		m.lastSummary = make([][3]float64, len(row)/metrics.NumQuantiles)
		for j := range m.lastSummary {
			copy(m.lastSummary[j][:], row[j*metrics.NumQuantiles:])
		}
	}
	m.degradedCount = 0
	for _, d := range m.st.Degraded {
		if d {
			m.degradedCount++
		}
	}
	if m.fc == nil {
		m.st.Forecast = nil // the stage is off: nothing to restore or save
	} else {
		m.fc.restore(m.st.Forecast)
		m.st.Forecast = &m.fc.ForecastState
	}
	return f.Meta, nil
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
