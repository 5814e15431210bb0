package scenario

import (
	"bytes"
	"fmt"
	"reflect"

	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/fleet"
	"dcfp/internal/incident"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
	"dcfp/internal/telemetry"
)

// Detection is one inactive→active transition in the report stream, mapped
// back to the scripted crisis that caused it (-1 if none matched).
type Detection struct {
	Crisis int           `json:"crisis"`
	Epoch  metrics.Epoch `json:"epoch"`
}

// CrisisOutcome is one resolved crisis scored against §4.3.
type CrisisOutcome struct {
	Crisis  int    `json:"crisis"` // scripted index
	ID      string `json:"id"`
	Truth   string `json:"truth"`
	Known   bool   `json:"known"`
	Emitted string `json:"emitted"`
	Correct bool   `json:"correct"`
}

// Result is everything a scenario run measured, plus the expectation
// violations (empty Failures = the scenario passed).
type Result struct {
	Name     string   `json:"name"`
	Failures []string `json:"failures"`

	Detections     []Detection     `json:"detections"`
	Outcomes       []CrisisOutcome `json:"outcomes"`
	Resolved       int             `json:"resolved"`
	KnownAccuracy  float64         `json:"known_accuracy"`
	KnownScored    int             `json:"known_scored"`
	DegradedEpochs int64           `json:"degraded_epochs"`
	Rebalances     int             `json:"rebalances"`
	ZombieRejected int             `json:"zombie_rejected"`
	CorruptFrames  int             `json:"corrupt_frames"`
	PartialMerges  int             `json:"partial_merges"`
	Evicted        int             `json:"evicted"`
	Restarts       int             `json:"coordinator_restarts"`
	// IncidentReports counts the incident artifacts the run assembled
	// (open report included).
	IncidentReports int `json:"incident_reports"`
}

// Passed reports whether every expectation held.
func (r *Result) Passed() bool { return len(r.Failures) == 0 }

// Summary is a one-line human rendering for logs and CI output.
func (r *Result) Summary() string {
	verdict := "PASS"
	if !r.Passed() {
		verdict = fmt.Sprintf("FAIL (%d violations)", len(r.Failures))
	}
	return fmt.Sprintf("%s: %s — %d detections, %d resolved, known accuracy %.2f (%d scored), %d degraded epochs, %d partial merges, %d restarts",
		r.Name, verdict, len(r.Detections), r.Resolved, r.KnownAccuracy, r.KnownScored, r.DegradedEpochs, r.PartialMerges, r.Restarts)
}

// operator maps what the shared monitor.Operator (filing on the epoch a
// crisis ends) observes over a report stream back to the scripted crises:
// detections on inactive→active transitions, one outcome per scored
// resolution.
type operator struct {
	*monitor.Operator
	mon      *monitor.Monitor
	score    *monitor.Scoreboard
	startIdx map[metrics.Epoch]int
	// incidents, when set, receives the resolution outcomes so the run's
	// incident artifacts carry their §4.3 scores (daemon parity). It is
	// deliberately not rolled back on a coordinator restart — incident
	// reports are an observability artifact, not recovery state, exactly
	// like the daemon's.
	incidents *incident.Builder

	truthIdx   int
	resolved   int
	detections []Detection
	outcomes   []CrisisOutcome
	err        error // first filing failure; the report callback cannot return it
}

func newOperator(mon *monitor.Monitor, startIdx map[metrics.Epoch]int, inc *incident.Builder) *operator {
	score := monitor.NewScoreboard(nil)
	return &operator{Operator: monitor.NewOperator(mon, score, 0), mon: mon, score: score,
		startIdx: startIdx, incidents: inc, truthIdx: -1}
}

// opSnapshot is the operator's checkpointable working state.
type opSnapshot struct {
	op         monitor.OperatorState
	truthIdx   int
	resolved   int
	detections []Detection
	outcomes   []CrisisOutcome
	score      monitor.ScoreboardState
}

func (op *operator) snapshot() opSnapshot {
	return opSnapshot{
		op:         op.State(),
		truthIdx:   op.truthIdx,
		resolved:   op.resolved,
		detections: append([]Detection(nil), op.detections...),
		outcomes:   append([]CrisisOutcome(nil), op.outcomes...),
		score:      op.score.State(),
	}
}

func (op *operator) restore(s opSnapshot, mon *monitor.Monitor) {
	op.mon = mon
	op.Operator = monitor.NewOperator(mon, op.score, 0)
	op.SetState(s.op)
	op.truthIdx = s.truthIdx
	op.resolved = s.resolved
	op.detections = append([]Detection(nil), s.detections...)
	op.outcomes = append([]CrisisOutcome(nil), s.outcomes...)
	op.score.SetState(s.score)
}

func (op *operator) observe(rep *monitor.EpochReport, act *crisis.Instance) {
	label := ""
	if act != nil {
		label = typeLabel(act.Type)
		if idx, ok := op.startIdx[act.Start]; ok {
			op.truthIdx = idx
		}
	}
	if rep.CrisisActive && rep.CrisisStart == rep.Epoch {
		op.detections = append(op.detections, Detection{Crisis: op.truthIdx, Epoch: rep.Epoch})
	}
	filed, err := op.Observe(rep, label)
	if err != nil && op.err == nil {
		op.err = err
	}
	op.resolved += len(filed)
	for _, r := range filed {
		if !r.Scored {
			continue
		}
		op.incidents.Resolve(r.Epoch, r.CrisisID, r.Truth, r.Known, r.Votes, r.Outcome)
		op.outcomes = append(op.outcomes, CrisisOutcome{
			Crisis: op.truthIdx, ID: r.CrisisID, Truth: r.Truth, Known: r.Known,
			Emitted: r.Outcome.Emitted, Correct: r.Outcome.Correct,
		})
	}
}

// checkpointImage is one consistent cut of the fleet: monitor bytes,
// coordinator state, and the operator's bookkeeping.
type checkpointImage struct {
	mon   []byte
	coord fleet.CoordinatorState
	op    opSnapshot
	epoch int
}

// Run executes the scenario in-process and evaluates its expectations.
// Operational errors (the harness itself failing) return an error;
// expectation violations land in Result.Failures.
func Run(sc *Scenario) (*Result, error) {
	scfg, err := sc.streamConfig()
	if err != nil {
		return nil, err
	}
	sF, err := dcsim.NewStream(scfg)
	if err != nil {
		return nil, err
	}
	startIdx := make(map[metrics.Epoch]int, len(sc.Crises))
	for i, c := range sc.Crises {
		startIdx[metrics.Epoch(c.Start)] = i
	}
	newMon := func(reg *telemetry.Registry) (*monitor.Monitor, error) {
		cfg := monitor.DefaultConfig(sF.Catalog(), sF.SLA())
		cfg.ThresholdRefreshEpochs = sc.Fleet.ThresholdRefreshEpochs
		cfg.MinEpochsForThresholds = sc.Fleet.MinEpochsForThresholds
		cfg.MinCoverage = sc.Fleet.MinCoverage
		cfg.Workers = 1
		cfg.Telemetry = reg
		return monitor.New(cfg)
	}

	reg := telemetry.NewRegistry()
	mF, err := newMon(reg)
	if err != nil {
		return nil, err
	}
	fcfg := sc.faultConfig()
	fcfg.Telemetry = reg
	faults, err := fleet.NewLinkFaults(fcfg)
	if err != nil {
		return nil, err
	}

	inc := incident.New(incident.Config{Registry: reg, Capacity: 1024})
	opF := newOperator(mF, startIdx, inc)
	reports := map[metrics.Epoch]*monitor.EpochReport{}
	ch, err := fleet.NewChaosHarness(fleet.ChaosConfig{
		Coordinator: fleet.CoordinatorConfig{
			Machines:        sc.Fleet.Machines,
			Shards:          sc.Fleet.Shards,
			Monitor:         mF,
			Window:          sc.Fleet.Window,
			DeadAfterEpochs: sc.Fleet.DeadAfterEpochs,
			OnReport: func(rep *monitor.EpochReport, act *crisis.Instance) {
				reports[rep.Epoch] = rep
				// Incident bookkeeping first so the window finalizes
				// before the operator's resolution scores it.
				activeID := ""
				if rep.CrisisActive {
					activeID = opF.mon.ActiveCrisisID()
				}
				inc.Observe(rep, activeID)
				opF.observe(rep, act)
			},
			Telemetry: reg,
		},
		Aggregator:      fleet.AggregatorConfig{NumMetrics: sF.Catalog().Len(), SLA: sF.SLA()},
		Faults:          faults,
		FlushAfterSteps: sc.Fleet.FlushAfterSteps,
		ReplayCapacity:  sc.Fleet.ReplayCapacity,
	})
	if err != nil {
		return nil, err
	}

	// Clean single-node reference, only when an equivalence expectation
	// needs it: same scripted stream, same monitor config, no fleet.
	var sC *dcsim.Stream
	var opC *operator
	var cleanReps []*monitor.EpochReport
	if sc.Expect.EquivalentToClean {
		if sC, err = dcsim.NewStream(scfg); err != nil {
			return nil, err
		}
		mC, err := newMon(nil)
		if err != nil {
			return nil, err
		}
		opC = newOperator(mC, startIdx, nil)
	}

	events := make(map[int][]Event, len(sc.Events))
	for _, ev := range sc.Events {
		events[ev.At] = append(events[ev.At], ev)
	}

	res := &Result{Name: sc.Name}
	var ckpt *checkpointImage
	for i := 0; i < sc.Fleet.Epochs; i++ {
		for _, ev := range events[i] {
			switch ev.Action {
			case ActionPartition:
				faults.Partition(ev.Shard, ch.StepCount()+ev.Steps)
			case ActionKillShard:
				ch.Kill(ev.Shard)
			case ActionRestartShard:
				ch.Restart(ev.Shard)
			case ActionSlowShard:
				faults.SetSlow(ev.Shard, ev.Mean)
			case ActionRestartCoordinator:
				if ckpt == nil {
					return nil, fmt.Errorf("scenario %s: coordinator restart at epoch %d with no checkpoint", sc.Name, i)
				}
				mR, err := newMon(reg)
				if err != nil {
					return nil, err
				}
				if _, err := mR.ReadCheckpoint(bytes.NewReader(ckpt.mon)); err != nil {
					return nil, fmt.Errorf("scenario %s: restoring checkpoint from epoch %d: %w", sc.Name, ckpt.epoch, err)
				}
				if _, err := ch.RestartCoordinator(mR, ckpt.coord); err != nil {
					return nil, err
				}
				opF.restore(ckpt.op, mR)
				res.Restarts++
			}
		}

		rows, act, err := sF.Next()
		if err != nil {
			return nil, err
		}
		if err := ch.Step(metrics.Epoch(i), rows, act); err != nil {
			return nil, err
		}
		if opF.err != nil {
			return nil, opF.err
		}

		if opC != nil {
			rowsC, actC, err := sC.Next()
			if err != nil {
				return nil, err
			}
			repC, err := opC.mon.ObserveEpoch(rowsC)
			if err != nil {
				return nil, err
			}
			cleanReps = append(cleanReps, repC)
			opC.observe(repC, actC)
			if opC.err != nil {
				return nil, opC.err
			}
		}

		if i > 0 && i%sc.Fleet.CheckpointEvery == 0 {
			var buf bytes.Buffer
			img := &checkpointImage{epoch: i}
			var ckErr error
			ch.Coordinator.Sync(func(st fleet.CoordinatorState) {
				img.coord = st
				ckErr = opF.mon.WriteCheckpoint(&buf, monitor.CheckpointMeta{SourceEpoch: int64(i)})
			})
			if ckErr != nil {
				return nil, ckErr
			}
			img.mon = buf.Bytes()
			img.op = opF.snapshot()
			ckpt = img
		}
	}
	if err := ch.Drain(200 + 4*sc.Fleet.FlushAfterSteps); err != nil {
		return nil, err
	}
	if opF.err != nil {
		return nil, opF.err
	}

	// Measurements.
	res.Detections = opF.detections
	res.Outcomes = opF.outcomes
	res.Resolved = opF.resolved
	st := opF.score.State()
	res.KnownAccuracy = st.KnownAccuracy
	res.KnownScored = int(st.KnownTotal)
	res.DegradedEpochs = opF.mon.Stats().DegradedEpochs
	res.Rebalances = int(regValue(reg, "dcfp_fleet_rebalances_total"))
	res.ZombieRejected = ch.ZombieRejected
	res.CorruptFrames = int(regValue(reg, "dcfp_fleet_frames_total", telemetry.Label{Key: "result", Value: "corrupt"}))
	res.PartialMerges = int(regValue(reg, "dcfp_fleet_epochs_merged_total", telemetry.Label{Key: "completeness", Value: "partial"}))
	res.Evicted = ch.Evicted()
	res.IncidentReports = inc.Count()

	var cleanMon *monitor.Monitor
	if opC != nil {
		cleanMon = opC.mon
	}
	res.Failures = evaluate(sc, res, reports, cleanReps, opF, cleanMon, inc)
	return res, nil
}

// evaluate checks every expectation and returns the violations.
func evaluate(sc *Scenario, res *Result, reports map[metrics.Epoch]*monitor.EpochReport,
	cleanReps []*monitor.EpochReport, opF *operator, cleanMon *monitor.Monitor, inc *incident.Builder) []string {
	var fails []string
	failf := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}
	ex := sc.Expect

	if ex.EquivalentToClean {
		diverged := false
		for i, rc := range cleanReps {
			rf := reports[metrics.Epoch(i)]
			if rf == nil {
				failf("equivalence: fleet never reported epoch %d", i)
				diverged = true
				break
			}
			if !reflect.DeepEqual(rc, rf) {
				failf("equivalence: reports diverge at epoch %d", i)
				diverged = true
				break
			}
		}
		if !diverged {
			if !reflect.DeepEqual(opF.mon.Stats(), cleanMon.Stats()) {
				failf("equivalence: final stats diverge")
			}
			if !reflect.DeepEqual(opF.mon.Crises(), cleanMon.Crises()) {
				failf("equivalence: crisis records diverge")
			}
		}
	}

	for i, d := range ex.Detect {
		var det *Detection
		for j := range res.Detections {
			if res.Detections[j].Crisis == d.Crisis {
				det = &res.Detections[j]
				break
			}
		}
		if det == nil {
			failf("detect[%d]: crisis %d was never detected", i, d.Crisis)
			continue
		}
		if int(det.Epoch) > d.By {
			failf("detect[%d]: crisis %d detected at epoch %d, after deadline %d", i, d.Crisis, det.Epoch, d.By)
		}
		if d.IdentifiedAs == "" {
			continue
		}
		var out *CrisisOutcome
		for j := range res.Outcomes {
			if res.Outcomes[j].Crisis == d.Crisis {
				out = &res.Outcomes[j]
				break
			}
		}
		if out == nil {
			failf("detect[%d]: crisis %d was never scored for identification", i, d.Crisis)
		} else if out.Emitted != d.IdentifiedAs {
			failf("detect[%d]: crisis %d identified as %q, want %q", i, d.Crisis, out.Emitted, d.IdentifiedAs)
		}
	}

	if ex.Resolved != nil && res.Resolved != *ex.Resolved {
		failf("resolved %d crises, want %d", res.Resolved, *ex.Resolved)
	}
	if ex.MinKnownAccuracy != nil {
		if res.KnownScored == 0 {
			failf("known accuracy floor %.2f set but no known diagnoses were scored", *ex.MinKnownAccuracy)
		} else if res.KnownAccuracy < *ex.MinKnownAccuracy {
			failf("known accuracy %.2f below floor %.2f", res.KnownAccuracy, *ex.MinKnownAccuracy)
		}
	}
	if int(res.DegradedEpochs) < ex.MinDegradedEpochs {
		failf("%d degraded epochs, want at least %d", res.DegradedEpochs, ex.MinDegradedEpochs)
	}
	if ex.MaxDegradedEpochs != nil && int(res.DegradedEpochs) > *ex.MaxDegradedEpochs {
		failf("%d degraded epochs, want at most %d", res.DegradedEpochs, *ex.MaxDegradedEpochs)
	}
	if res.Rebalances < ex.MinRebalances {
		failf("%d rebalances, want at least %d", res.Rebalances, ex.MinRebalances)
	}
	if res.ZombieRejected < ex.MinZombieRejected {
		failf("%d zombie rejections, want at least %d", res.ZombieRejected, ex.MinZombieRejected)
	}
	if ex.CorruptFramesRejected && res.CorruptFrames == 0 {
		failf("no corrupt frames rejected despite corruption expectation")
	}
	if ex.MaxPartialMerges != nil && res.PartialMerges > *ex.MaxPartialMerges {
		failf("%d partial merges, want at most %d", res.PartialMerges, *ex.MaxPartialMerges)
	}
	if ex.MaxEvicted != nil && res.Evicted > *ex.MaxEvicted {
		failf("%d frames evicted, want at most %d", res.Evicted, *ex.MaxEvicted)
	}
	if ex.MinIncidentReports != nil {
		if res.IncidentReports < *ex.MinIncidentReports {
			failf("%d incident reports assembled, want at least %d", res.IncidentReports, *ex.MinIncidentReports)
		}
		// Every scored resolution must have produced a matching resolved
		// incident artifact — the same consistency /incidents/{id} and the
		// audit journal guarantee each other in the daemon.
		for _, out := range res.Outcomes {
			r, ok := inc.Get(out.ID)
			switch {
			case !ok:
				failf("outcome %s has no incident report", out.ID)
			case r.Score == nil:
				failf("incident %s was never scored", out.ID)
			case r.Score.Emitted != out.Emitted || r.Score.Correct != out.Correct:
				failf("incident %s score (%q, correct=%v) disagrees with outcome (%q, correct=%v)",
					out.ID, r.Score.Emitted, r.Score.Correct, out.Emitted, out.Correct)
			}
		}
	}
	return fails
}

func regValue(reg *telemetry.Registry, name string, labels ...telemetry.Label) float64 {
	v, _ := reg.Value(name, labels...)
	return v
}
