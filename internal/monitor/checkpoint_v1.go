package monitor

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"dcfp/internal/core"
	"dcfp/internal/ident"
	"dcfp/internal/metrics"
	"dcfp/internal/online"
)

// Everything that exists only to read version-1 checkpoints, which older
// builds wrote: their payload, the crisis store some carry, and upgrade into
// the version-2 image that ReadCheckpoint validates and installs.

// payloadV1 is the version-1 gob image of the monitor's state. Files from
// older builds also carry Epoch, LastSummary, DegradedCount, NextID,
// ActiveStart, each crisis's ID and a per-machine LastSeen table, which the
// monitor recomputes or no longer keeps; gob skips fields the struct lacks.
type payloadV1 struct {
	InCrisis     []bool
	Degraded     []bool
	Track        *metrics.QuantileTrack
	HasThresh    bool // Thresholds is empty, not absent, without it
	Thresholds   metrics.Thresholds
	LastThresh   metrics.Epoch
	ThGen        uint64
	Expected     int
	LastCoverage float64
	// Store is carried by files written while the monitor kept a separate
	// crisis store; their records lack Closed, which the store supplies.
	Store *legacyStore
	Past  []crisisV1
	// Each ring slot's reporting machines as rows, their violation flags
	// and the epoch the slot holds.
	RawRing   [][][]float64
	ViolRing  [][]bool
	RingEpoch []metrics.Epoch
	RingPos   int
	ActiveIdx int // len(Past)-1 while the newest crisis is open, else -1
	Calm      int
	Forecast  *online.ForecastState
}

// crisisV1 is a version-1 crisis record; FsX/FsY are its feature-selection
// samples as rows with 0/1 labels.
type crisisV1 struct {
	Label  string
	Start  metrics.Epoch
	Closed metrics.Epoch
	FsX    [][]float64
	FsY    []int
	Top    []int
	Votes  []string
	Expl   []*ident.Explanation
}

// readV1 decodes a version-1 payload, after its header, as version 2.
func readV1(r io.Reader) (checkpointFile, error) {
	var f struct {
		Meta  CheckpointMeta
		State payloadV1
	}
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return checkpointFile{}, fmt.Errorf("monitor: checkpoint decode: %w", err)
	}
	s, err := f.State.upgrade()
	return checkpointFile{f.Meta, s}, err
}

// upgrade converts v into the version-2 image: sample rows become
// metric-major blocks, and only the open crisis keeps its samples. Version 2
// validates every shape the conversion does not need.
func (v *payloadV1) upgrade() (*online.State, error) {
	if err := v.Store.setClosed(v.Past); err != nil {
		return nil, err
	}
	// Only the newest crisis can be open: anything else would re-open, and
	// store a second time, a finalized one.
	if v.ActiveIdx != -1 && v.ActiveIdx != len(v.Past)-1 {
		return nil, fmt.Errorf("monitor: checkpoint active index %d with %d past crises", v.ActiveIdx, len(v.Past))
	}
	if len(v.ViolRing) != len(v.RawRing) || len(v.RingEpoch) != len(v.RawRing) {
		return nil, fmt.Errorf("monitor: checkpoint ring sizes (%d, %d, %d)", len(v.RawRing), len(v.ViolRing), len(v.RingEpoch))
	}
	s := &online.State{
		InCrisis: v.InCrisis, Degraded: v.Degraded, Track: v.Track, LastThresh: v.LastThresh, ThGen: v.ThGen,
		Expected: v.Expected, LastCoverage: v.LastCoverage, Open: v.ActiveIdx != -1, Calm: v.Calm,
		Ring: make([]online.Retained, len(v.RawRing)), RingPos: v.RingPos, Forecast: v.Forecast,
	}
	if v.HasThresh {
		s.Thresholds = &v.Thresholds
	}
	for _, p := range v.Past {
		s.Crises = append(s.Crises, online.Crisis{State: online.CrisisState{Label: p.Label, Start: p.Start, Closed: p.Closed, Top: p.Top, Votes: p.Votes}, Expl: p.Expl})
	}
	if s.Open {
		p := v.Past[v.ActiveIdx]
		fs, err := core.CrisisSamples{X: p.FsX, Y: p.FsY}.Buffer()
		if err != nil {
			return nil, fmt.Errorf("monitor: checkpoint crisis %s: %w", online.CrisisID(len(v.Past)), err)
		}
		s.Samples.X, s.Samples.Viol = fs.Block()
	}
	for i, rows := range v.RawRing {
		var slot core.SampleBuffer
		if err := slot.Append(rows, v.ViolRing[i]); err != nil {
			return nil, fmt.Errorf("monitor: checkpoint ring slot %d: %w", i, err)
		}
		s.Ring[i].Epoch = v.RingEpoch[i]
		s.Ring[i].X, s.Ring[i].Viol = slot.Block()
	}
	return s, nil
}

// legacyStore reads the crisis store that checkpoints carried while the
// monitor kept one beside its crisis records: per stored crisis, its ID and
// the track rows of its summary window, as many as had been observed when it
// closed. It keeps each crisis's row count by ID.
type legacyStore map[string]int

// GobEncode refuses: it only lets a payload without a store be encoded.
func (s *legacyStore) GobEncode() ([]byte, error) {
	return nil, errors.New("monitor: the legacy crisis store is read-only")
}

// GobDecode decodes the store's gob image.
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
	*s = make(legacyStore, len(g.Crises))
	for _, c := range g.Crises {
		(*s)[c.ID] = len(c.Rows)
	}
	return nil
}

// setClosed sets each crisis record's Closed from the store, which names a
// record by its ID, crisisID of its index plus one: -1 for a crisis the store
// lacks, else the last epoch of its stored window, which bounds the window
// exactly as the epoch it closed at did. A nil store (a checkpoint without
// one) leaves past as decoded.
func (s *legacyStore) setClosed(past []crisisV1) error {
	if s == nil {
		return nil
	}
	found := 0
	for i := range past {
		p, id := &past[i], online.CrisisID(i+1)
		n, ok := (*s)[id]
		p.Closed = -1
		if !ok {
			continue
		}
		found++
		if n < 1 || n > online.SummaryRange.Len() {
			return fmt.Errorf("monitor: checkpoint stores crisis %s with %d rows", id, n)
		}
		p.Closed = max(0, p.Start-metrics.Epoch(online.SummaryRange.Before)) + metrics.Epoch(n) - 1
	}
	if found != len(*s) {
		return fmt.Errorf("monitor: checkpoint stores %d crises without a record", len(*s)-found)
	}
	return nil
}
