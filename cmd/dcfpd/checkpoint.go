package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"log"
	"os"
	"time"

	"dcfp/internal/fleet"
	"dcfp/internal/monitor"
)

// daemonState is the daemon-side bookkeeping carried in a checkpoint's
// Extra blob. Truth, Pending, LastID and WasIn are monitor.OperatorState's
// fields, spelled out because gob does not flatten an embedded struct and
// checkpoints written before the Operator existed carry them at this level.
type daemonState struct {
	Truth   map[string]string
	Pending []monitor.PendingDiagnosis
	LastID  string
	WasIn   bool
	Advice  []monitor.Advice
	Ingest  monitor.IngestorState
	Emitted int64
	Score   monitor.ScoreboardState
	Fleet   *fleet.CoordinatorState // coordinator role: merge watermark + shard progress
}

// checkpoint snapshots monitor + daemon state into -checkpoint-dir. Failures
// are logged and survived: the daemon keeps running and retries at the next
// interval. In coordinator mode the fleet merge progress is captured in the
// same cut: Sync holds the coordinator lock — the lock the merge path holds
// while it advances the monitor — so the saved watermark matches exactly the
// epochs the saved monitor has absorbed.
func (d *daemon) checkpoint() {
	if d.coord == nil {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.saveLocked(nil)
		return
	}
	d.coord.Sync(func(st fleet.CoordinatorState) {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.saveLocked(&st)
	})
}

func (d *daemon) saveLocked(fl *fleet.CoordinatorState) {
	op := d.op.State()
	ds := daemonState{
		Truth: op.Truth, Pending: op.Pending, LastID: op.LastID, WasIn: op.WasIn,
		Advice:  d.advice,
		Ingest:  d.ing.State(),
		Emitted: d.emitted,
		Score:   d.score.State(),
		Fleet:   fl,
	}
	var extra bytes.Buffer
	if err := gob.NewEncoder(&extra).Encode(&ds); err != nil {
		log.Printf("WARNING: checkpoint skipped (daemon state encode): %v", err)
		return
	}
	meta := monitor.CheckpointMeta{SourceEpoch: d.emitted, Extra: extra.Bytes()}
	if _, err := d.mon.SaveCheckpoint(d.cfg.ckptDir, meta, 3, 200*time.Millisecond); err != nil {
		log.Printf("WARNING: checkpoint save failed: %v", err)
	}
}

// restore loads the newest checkpoint in -checkpoint-dir, if any, into the
// monitor and the daemon bookkeeping; d.emitted then tells the caller how far
// to fast-forward the simulator. A corrupt or unreadable checkpoint is logged
// and skipped — a cold start beats trusting it. It runs before the daemon is
// shared with any other goroutine.
func (d *daemon) restore() {
	if d.cfg.ckptDir == "" {
		return
	}
	if err := os.MkdirAll(d.cfg.ckptDir, 0o755); err != nil {
		log.Fatal(err)
	}
	restored, err := d.load()
	switch {
	case err != nil:
		// The monitor may be partially restored; rebuild it.
		log.Printf("WARNING: ignoring checkpoint in %s (starting cold): %v", d.cfg.ckptDir, err)
		if err := d.buildPipeline(); err != nil {
			log.Fatal(err)
		}
	case restored:
		// The registry restarted empty: series that existed before the
		// crash reappear only as the replayed/live epochs recreate them.
		// Hold absence rules (each re-arms on its series' first sample;
		// the rest resume wholesale after one checkpoint interval) so the
		// fast-forward window cannot fire spurious absence pages.
		d.engine.SuppressAbsence()
		d.resumeAt = d.emitted + int64(d.cfg.ckptEvery)
		log.Printf("restored checkpoint: %d emissions already ingested, monitor at epoch %d",
			d.emitted, d.mon.Stats().EpochsSeen)
	}
}

func (d *daemon) load() (bool, error) {
	meta, ok, err := monitor.LoadCheckpoint(d.cfg.ckptDir, d.mon)
	if err != nil || !ok {
		return false, err
	}
	var ds daemonState
	if err := gob.NewDecoder(bytes.NewReader(meta.Extra)).Decode(&ds); err != nil {
		return false, fmt.Errorf("daemon state decode (monitor state was consistent, but restarting cold for coherence): %w", err)
	}
	if err := d.ing.SetState(ds.Ingest); err != nil {
		return false, err
	}
	d.op.SetState(monitor.OperatorState{Truth: ds.Truth, Pending: ds.Pending, LastID: ds.LastID, WasIn: ds.WasIn})
	d.advice, d.emitted, d.fleet = ds.Advice, ds.Emitted, ds.Fleet
	d.score.SetState(ds.Score)
	return true, nil
}
