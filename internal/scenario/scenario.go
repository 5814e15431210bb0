// Package scenario is the declarative chaos-scenario engine: a JSON format
// describing a fleet shape, a scripted crisis schedule, timed fault events
// (partitions, shard kills, coordinator restarts, slow links), and the
// outcomes the run must exhibit — detection deadlines, identification
// labels, accuracy floors, bounded degradation, or byte-identical
// equivalence to a clean single-node run. Scenarios load from
// scenarios/*.json, run in-process on the fleet chaos harness, and back the
// `dcfpd validate`/`dcfpd -scenario` subcommands plus the CI matrix.
package scenario

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/fleet"
	"dcfp/internal/metrics"
)

// Scenario is one declarative chaos run.
type Scenario struct {
	// Name identifies the scenario in results and CI output.
	Name string `json:"name"`
	// Description says what the run demonstrates.
	Description string `json:"description,omitempty"`
	// Paper optionally cites the paper section the scenario exercises
	// (e.g. "§4.4 operational considerations").
	Paper string `json:"paper,omitempty"`
	// Fleet shapes the simulated fleet and its merge discipline.
	Fleet Fleet `json:"fleet"`
	// Faults is the run-wide random fault mix on every aggregator→
	// coordinator link (omit for a perfect network; partitions and slow
	// links arrive via Events either way).
	Faults *Faults `json:"faults,omitempty"`
	// Crises is the scripted crisis schedule — the ground truth the
	// expectations are phrased against.
	Crises []Crisis `json:"crises"`
	// Events are timed chaos actions applied at their epoch.
	Events []Event `json:"events,omitempty"`
	// Expect is the pass/fail contract.
	Expect Expect `json:"expect"`
}

// Fleet shapes the simulated datacenter and the two-tier pipeline over it.
// Zero fields take the documented defaults.
type Fleet struct {
	// Machines in the datacenter (default 100).
	Machines int `json:"machines,omitempty"`
	// Shards the machines are split across (default 2).
	Shards int `json:"shards,omitempty"`
	// Seed drives the workload, crisis severities, and fault plan
	// (default 42).
	Seed int64 `json:"seed,omitempty"`
	// Epochs is the run length (required).
	Epochs int `json:"epochs"`
	// WarmupEpochs precede the first possible crisis (default 24).
	WarmupEpochs int `json:"warmup_epochs,omitempty"`
	// MinCoverage is the monitor's coverage floor; below it epochs are
	// degraded and the crisis state machine freezes (default 0.5).
	MinCoverage float64 `json:"min_coverage,omitempty"`
	// Window is the coordinator's admission window in epochs (default 8).
	Window int `json:"window,omitempty"`
	// FlushAfterSteps is the step-counted lateness budget before the
	// watermark epoch is force-merged (default 4).
	FlushAfterSteps int `json:"flush_after_steps,omitempty"`
	// DeadAfterEpochs declares a silent shard dead and rebalances its
	// machines (default 0 = never).
	DeadAfterEpochs int `json:"dead_after_epochs,omitempty"`
	// ReplayCapacity bounds each shard's replay ring (default 64).
	ReplayCapacity int `json:"replay_capacity,omitempty"`
	// CheckpointEvery is the checkpoint cadence in epochs; a
	// restart_coordinator event restores the latest one (default 24).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// ThresholdRefreshEpochs / MinEpochsForThresholds tune the monitor's
	// threshold cadence (defaults 24 / 48, sized to the short scripted
	// runs scenarios use).
	ThresholdRefreshEpochs int `json:"threshold_refresh_epochs,omitempty"`
	MinEpochsForThresholds int `json:"min_epochs_for_thresholds,omitempty"`
}

// Faults mirrors fleet.LinkFaultConfig: per-attempt probabilities of the
// random fault classes. The injector seed is Fleet.Seed+1 unless Seed is
// set, so the whole run replays from one scenario file.
type Faults struct {
	Seed          int64   `json:"seed,omitempty"`
	DropRate      float64 `json:"drop_rate,omitempty"`
	DupRate       float64 `json:"dup_rate,omitempty"`
	DelayRate     float64 `json:"delay_rate,omitempty"`
	MaxDelaySteps int     `json:"max_delay_steps,omitempty"`
	CorruptRate   float64 `json:"corrupt_rate,omitempty"`
	TruncateRate  float64 `json:"truncate_rate,omitempty"`
}

// Crisis pins one scripted crisis. Types are the paper's letters "A".."J";
// severity 0 draws from the usual 0.9..1.1 band.
type Crisis struct {
	Start    int     `json:"start"`
	Duration int     `json:"duration"`
	Type     string  `json:"type"`
	Severity float64 `json:"severity,omitempty"`
}

// Event actions.
const (
	// ActionPartition severs shard's link (shard -1 = all) for Steps
	// delivery steps; the backlog replays after the heal.
	ActionPartition = "partition"
	// ActionKillShard crashes the shard process: queued frames are lost,
	// no further frames are built until a restart.
	ActionKillShard = "kill_shard"
	// ActionRestartShard brings a killed shard back with an empty buffer,
	// adopting the coordinator's current assignment.
	ActionRestartShard = "restart_shard"
	// ActionRestartCoordinator crash-restarts the coordinator from the
	// latest checkpoint; shard backlogs fast-forward it to the present.
	ActionRestartCoordinator = "restart_coordinator"
	// ActionSlowShard gives shard's link exponential extra delay with the
	// given Mean in steps (Mean 0 restores a fast link).
	ActionSlowShard = "slow_shard"
)

// Event is one timed chaos action, applied just before epoch At is fed.
type Event struct {
	At     int     `json:"at"`
	Action string  `json:"action"`
	Shard  int     `json:"shard,omitempty"`
	Steps  int     `json:"steps,omitempty"`
	Mean   float64 `json:"mean,omitempty"`
}

// Detect is one detection/identification expectation against a scripted
// crisis (by index into Crises).
type Detect struct {
	// Crisis indexes Crises.
	Crisis int `json:"crisis"`
	// By is the epoch the detection must have happened by.
	By int `json:"by"`
	// IdentifiedAs, when set, is the stable label identification must
	// emit for this crisis (e.g. "type-B", or "x" for unknown).
	IdentifiedAs string `json:"identified_as,omitempty"`
}

// Expect is the scenario's pass/fail contract. Pointer fields distinguish
// "don't care" from a zero bound.
type Expect struct {
	// EquivalentToClean demands per-epoch reports, final stats, and crisis
	// records byte-identical to an uninterrupted single-node run of the
	// same scripted stream — the strongest guarantee, for faults the
	// lateness budget must fully absorb.
	EquivalentToClean bool `json:"equivalent_to_clean,omitempty"`
	// Detect lists per-crisis detection deadlines and identification
	// labels.
	Detect []Detect `json:"detect,omitempty"`
	// Resolved is the exact number of crises the operator loop resolved.
	Resolved *int `json:"resolved,omitempty"`
	// MinKnownAccuracy floors the §4.3 known-crisis identification
	// accuracy over the run's scored diagnoses.
	MinKnownAccuracy *float64 `json:"min_known_accuracy,omitempty"`
	// MinDegradedEpochs / MaxDegradedEpochs bound how many epochs the
	// fleet spent frozen below the coverage floor — the only sanctioned
	// degradation mode.
	MinDegradedEpochs int  `json:"min_degraded_epochs,omitempty"`
	MaxDegradedEpochs *int `json:"max_degraded_epochs,omitempty"`
	// MinRebalances floors the assignment rebalances after shard deaths.
	MinRebalances int `json:"min_rebalances,omitempty"`
	// MinZombieRejected floors the frames refused from shards that came
	// back after being declared dead.
	MinZombieRejected int `json:"min_zombie_rejected,omitempty"`
	// CorruptFramesRejected demands the coordinator counted at least one
	// corrupt frame (proof the checksum path was exercised).
	CorruptFramesRejected bool `json:"corrupt_frames_rejected,omitempty"`
	// MaxPartialMerges bounds merges that synthesized an absent shard.
	MaxPartialMerges *int `json:"max_partial_merges,omitempty"`
	// MaxEvicted bounds frames dropped from replay rings.
	MaxEvicted *int `json:"max_evicted,omitempty"`
	// MinIncidentReports floors the incident reports the run assembled
	// (open or finalized). Setting it also demands every scored §4.3
	// outcome carry a matching resolved incident artifact.
	MinIncidentReports *int `json:"min_incident_reports,omitempty"`
}

// applyDefaults fills the documented zero-value defaults in place.
func (sc *Scenario) applyDefaults() {
	f := &sc.Fleet
	f.Machines = cmp.Or(f.Machines, 100)
	f.Shards = cmp.Or(f.Shards, 2)
	f.Seed = cmp.Or(f.Seed, 42)
	f.WarmupEpochs = cmp.Or(f.WarmupEpochs, 24)
	f.MinCoverage = cmp.Or(f.MinCoverage, 0.5)
	f.Window = cmp.Or(f.Window, 8)
	f.FlushAfterSteps = cmp.Or(f.FlushAfterSteps, 4)
	f.ReplayCapacity = cmp.Or(f.ReplayCapacity, 64)
	f.CheckpointEvery = cmp.Or(f.CheckpointEvery, 24)
	f.ThresholdRefreshEpochs = cmp.Or(f.ThresholdRefreshEpochs, 24)
	f.MinEpochsForThresholds = cmp.Or(f.MinEpochsForThresholds, 48)
	if sc.Faults != nil && sc.Faults.Seed == 0 {
		sc.Faults.Seed = f.Seed + 1
	}
}

// script converts the crisis schedule to the stream's scripted form.
func (sc *Scenario) script() ([]dcsim.ScriptedCrisis, error) {
	out := make([]dcsim.ScriptedCrisis, 0, len(sc.Crises))
	for i, c := range sc.Crises {
		ty, err := crisis.ParseType(c.Type)
		if err != nil {
			return nil, fmt.Errorf("crisis %d: %w", i, err)
		}
		out = append(out, dcsim.ScriptedCrisis{
			Start:    metrics.Epoch(c.Start),
			Duration: c.Duration,
			Type:     ty,
			Severity: c.Severity,
		})
	}
	return out, nil
}

// streamConfig assembles the dcsim config the run (and its clean reference)
// uses; building it validates the crisis schedule via the stream's own
// checks.
func (sc *Scenario) streamConfig() (dcsim.StreamConfig, error) {
	cfg := dcsim.DefaultStreamConfig(sc.Fleet.Seed)
	cfg.Machines = sc.Fleet.Machines
	cfg.WarmupEpochs = sc.Fleet.WarmupEpochs
	script, err := sc.script()
	if err != nil {
		return dcsim.StreamConfig{}, err
	}
	cfg.Script = script
	return cfg, nil
}

// faultConfig assembles the injector config (zero rates for a perfect
// network, so Partition/SetSlow events still have an injector to land on).
func (sc *Scenario) faultConfig() fleet.LinkFaultConfig {
	cfg := fleet.LinkFaultConfig{Seed: sc.Fleet.Seed + 1}
	if f := sc.Faults; f != nil {
		cfg = fleet.LinkFaultConfig{
			Seed: f.Seed, DropRate: f.DropRate, DupRate: f.DupRate,
			DelayRate: f.DelayRate, MaxDelaySteps: f.MaxDelaySteps,
			CorruptRate: f.CorruptRate, TruncateRate: f.TruncateRate,
		}
	}
	return cfg
}

// Validate checks the scenario statically: the stream script, the fault
// rates, event shapes, and expectation references all have to be coherent
// before a run is attempted. `dcfpd validate` is this, over a file.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if sc.Fleet.Epochs <= 0 {
		return fmt.Errorf("scenario %s: fleet.epochs must be positive", sc.Name)
	}
	if sc.Fleet.Shards < 1 {
		return fmt.Errorf("scenario %s: fleet.shards %d < 1", sc.Name, sc.Fleet.Shards)
	}
	if sc.Fleet.CheckpointEvery < 1 {
		return fmt.Errorf("scenario %s: fleet.checkpoint_every %d < 1", sc.Name, sc.Fleet.CheckpointEvery)
	}
	scfg, err := sc.streamConfig()
	if err != nil {
		return fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if _, err := dcsim.NewStream(scfg); err != nil {
		return fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if _, err := fleet.NewLinkFaults(sc.faultConfig()); err != nil {
		return fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	for i, c := range sc.Crises {
		if c.Start+c.Duration > sc.Fleet.Epochs {
			return fmt.Errorf("scenario %s: crisis %d runs past the last epoch", sc.Name, i)
		}
	}
	if len(sc.Crises) == 0 {
		return fmt.Errorf("scenario %s: at least one scripted crisis is required (an empty script would fall back to random scheduling)", sc.Name)
	}
	for i, ev := range sc.Events {
		if ev.At < 0 || ev.At >= sc.Fleet.Epochs {
			return fmt.Errorf("scenario %s: event %d at epoch %d outside the run", sc.Name, i, ev.At)
		}
		switch ev.Action {
		case ActionPartition:
			if ev.Steps < 1 {
				return fmt.Errorf("scenario %s: event %d: partition needs steps >= 1", sc.Name, i)
			}
			if ev.Shard != -1 && (ev.Shard < 0 || ev.Shard >= sc.Fleet.Shards) {
				return fmt.Errorf("scenario %s: event %d: shard %d out of range", sc.Name, i, ev.Shard)
			}
		case ActionKillShard, ActionRestartShard:
			if ev.Shard < 0 || ev.Shard >= sc.Fleet.Shards {
				return fmt.Errorf("scenario %s: event %d: shard %d out of range", sc.Name, i, ev.Shard)
			}
		case ActionSlowShard:
			if ev.Shard < 0 || ev.Shard >= sc.Fleet.Shards {
				return fmt.Errorf("scenario %s: event %d: shard %d out of range", sc.Name, i, ev.Shard)
			}
			if ev.Mean < 0 {
				return fmt.Errorf("scenario %s: event %d: negative mean", sc.Name, i)
			}
		case ActionRestartCoordinator:
			if ev.At <= sc.Fleet.CheckpointEvery {
				return fmt.Errorf("scenario %s: event %d: coordinator restart at epoch %d precedes the first checkpoint (every %d)",
					sc.Name, i, ev.At, sc.Fleet.CheckpointEvery)
			}
		default:
			return fmt.Errorf("scenario %s: event %d: unknown action %q", sc.Name, i, ev.Action)
		}
	}
	for i, d := range sc.Expect.Detect {
		if d.Crisis < 0 || d.Crisis >= len(sc.Crises) {
			return fmt.Errorf("scenario %s: detect %d references crisis %d of %d", sc.Name, i, d.Crisis, len(sc.Crises))
		}
		if d.By <= sc.Crises[d.Crisis].Start {
			return fmt.Errorf("scenario %s: detect %d deadline %d not after crisis start %d",
				sc.Name, i, d.By, sc.Crises[d.Crisis].Start)
		}
		if d.By >= sc.Fleet.Epochs {
			return fmt.Errorf("scenario %s: detect %d deadline %d outside the run", sc.Name, i, d.By)
		}
	}
	if acc := sc.Expect.MinKnownAccuracy; acc != nil && (*acc < 0 || *acc > 1) {
		return fmt.Errorf("scenario %s: min_known_accuracy %v outside [0,1]", sc.Name, *acc)
	}
	if n := sc.Expect.MinIncidentReports; n != nil && *n < 0 {
		return fmt.Errorf("scenario %s: min_incident_reports %d negative", sc.Name, *n)
	}
	return nil
}

// Load reads, defaults, and validates one scenario file. Unknown JSON keys
// are errors — a typo in an expectation must not silently weaken it.
func Load(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	sc := &Scenario{}
	if err := dec.Decode(sc); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", filepath.Base(path), err)
	}
	sc.applyDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// LoadDir loads every *.json scenario in dir, sorted by name.
func LoadDir(dir string) ([]*Scenario, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.json files in %s", dir)
	}
	sort.Strings(paths)
	out := make([]*Scenario, 0, len(paths))
	for _, p := range paths {
		sc, err := Load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// typeLabel is the operator's ground-truth label for a crisis type — what
// ResolveCrisis files and identified_as expectations match against.
func typeLabel(ty crisis.Type) string {
	return "type-" + ty.String()
}
