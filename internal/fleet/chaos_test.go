package fleet

import (
	"bytes"
	"reflect"
	"testing"

	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
	"dcfp/internal/telemetry"
)

// chaosStream builds a scripted stream for the chaos suite: three pinned
// crises (the third repeating the first's type, so identification runs
// against a known label) packed tight enough that a full run stays cheap
// under the race detector. Same seed ⇒ byte-identical traces, which is what
// lets the clean single-node reference share the script.
func chaosStream(t *testing.T, seed int64) *dcsim.Stream {
	t.Helper()
	scfg := dcsim.DefaultStreamConfig(seed)
	scfg.WarmupEpochs = 24
	scfg.Script = []dcsim.ScriptedCrisis{
		{Start: 60, Duration: 10, Type: crisis.TypeB},
		{Start: 84, Duration: 10, Type: crisis.TypeG},
		{Start: 108, Duration: 8, Type: crisis.TypeB},
	}
	s, err := dcsim.NewStream(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// chaosEpochs covers the scripted crises plus post-crisis settle time.
const chaosEpochs = 140

func chaosMonitor(t *testing.T, s *dcsim.Stream, minCov float64, reg *telemetry.Registry) *monitor.Monitor {
	t.Helper()
	cfg := monitor.DefaultConfig(s.Catalog(), s.SLA())
	cfg.ThresholdRefreshEpochs = 24
	cfg.MinEpochsForThresholds = 48
	cfg.Workers = 1
	cfg.Telemetry = reg
	if minCov > 0 {
		cfg.MinCoverage = minCov
	}
	m, err := monitor.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// chaosOperator is the simulated operator of a chaos run, filing each
// ground-truth label on the epoch the reports show the crisis over. Its
// state is snapshotted alongside checkpoints so a coordinator restart
// replays transitions consistently.
func chaosOperator(mon *monitor.Monitor) *monitor.Operator {
	return monitor.NewOperator(mon, monitor.NewScoreboard(nil), 0)
}

func observe(op *monitor.Operator, rep *monitor.EpochReport, act *crisis.Instance) error {
	_, err := op.Observe(rep, truthLabel(act))
	return err
}

// TestChaosEquivalenceFaultyLink is the headline chaos guarantee: a 2-shard
// fleet behind a link that drops, duplicates, delays/reorders, corrupts,
// and truncates frames still produces an advice stream byte-identical to
// the single-node reference, because every lost or damaged frame is
// retried from the shard's replay ring before the lateness budget runs out.
func TestChaosEquivalenceFaultyLink(t *testing.T) {
	const seed, epochs = 42, chaosEpochs
	s1, sN := chaosStream(t, seed), chaosStream(t, seed)
	m1 := chaosMonitor(t, s1, 0, nil)
	mF := chaosMonitor(t, sN, 0, nil)
	reg := telemetry.NewRegistry()

	faults, err := NewLinkFaults(LinkFaultConfig{
		Seed:          7,
		DropRate:      0.06,
		DupRate:       0.15,
		DelayRate:     0.25,
		MaxDelaySteps: 2,
		CorruptRate:   0.03,
		TruncateRate:  0.03,
		Telemetry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	fleetReps := map[metrics.Epoch]*monitor.EpochReport{}
	opF := chaosOperator(mF)
	var opErr error
	ch, err := NewChaosHarness(ChaosConfig{
		Coordinator: CoordinatorConfig{
			Machines: 100,
			Shards:   2,
			Monitor:  mF,
			OnReport: func(rep *monitor.EpochReport, act *crisis.Instance) {
				fleetReps[rep.Epoch] = rep
				if err := observe(opF, rep, act); err != nil && opErr == nil {
					opErr = err
				}
			},
			Telemetry: reg,
		},
		Aggregator:      AggregatorConfig{NumMetrics: sN.Catalog().Len(), SLA: sN.SLA()},
		Faults:          faults,
		FlushAfterSteps: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	op1 := chaosOperator(m1)
	singleReps := make([]*monitor.EpochReport, 0, epochs)
	for i := 0; i < epochs; i++ {
		rows1, act, err := s1.Next()
		if err != nil {
			t.Fatal(err)
		}
		rowsN, _, err := sN.Next()
		if err != nil {
			t.Fatal(err)
		}
		r1, err := m1.ObserveEpoch(rows1)
		if err != nil {
			t.Fatal(err)
		}
		singleReps = append(singleReps, r1)
		if err := observe(op1, r1, act); err != nil {
			t.Fatal(err)
		}
		if err := ch.Step(metrics.Epoch(i), rowsN, act); err != nil {
			t.Fatal(err)
		}
		if opErr != nil {
			t.Fatal(opErr)
		}
	}
	if err := ch.Drain(200); err != nil {
		t.Fatal(err)
	}
	if opErr != nil {
		t.Fatal(opErr)
	}

	for i, r1 := range singleReps {
		rF := fleetReps[metrics.Epoch(i)]
		if rF == nil {
			t.Fatalf("epoch %d: fleet never reported", i)
		}
		if !reflect.DeepEqual(r1, rF) {
			t.Fatalf("epoch %d: single-node and chaos-fleet reports diverge:\nsingle: %+v\nfleet:  %+v", i, r1, rF)
		}
	}
	if !reflect.DeepEqual(m1.Stats(), mF.Stats()) {
		t.Fatalf("final stats diverge:\nsingle: %+v\nfleet:  %+v", m1.Stats(), mF.Stats())
	}
	if !reflect.DeepEqual(m1.Crises(), mF.Crises()) {
		t.Fatal("crisis records diverge")
	}
	// The run must actually have exercised the fault classes, and the
	// coordinator must have rejected every damaged copy as corrupt without
	// a single partial (synthesized-shard) merge.
	for _, fault := range []string{"drop", "dup", "delay", "corrupt", "truncate"} {
		if v, ok := reg.Value("dcfp_fleet_fault_injected_total", telemetry.Label{Key: "fault", Value: fault}); !ok || v == 0 {
			t.Errorf("fault %q never injected", fault)
		}
	}
	if v, ok := reg.Value("dcfp_fleet_frames_total", telemetry.Label{Key: "result", Value: "corrupt"}); !ok || v == 0 {
		t.Error("coordinator counted no corrupt frames despite corruption faults")
	}
	if v, _ := reg.Value("dcfp_fleet_epochs_merged_total", telemetry.Label{Key: "completeness", Value: "partial"}); v != 0 {
		t.Errorf("%v partial merges in an equivalence run — a frame outran the lateness budget", v)
	}
	if ch.Evicted() != 0 {
		t.Errorf("%d frames evicted from replay rings", ch.Evicted())
	}
}

// TestChaosPartitionDegrades severs one of two shards' links for longer
// than the lateness budget: the fleet must degrade through the existing
// coverage-floor freeze (Degraded reports, advice frozen) and recover once
// the partition heals and the backlog replays — not diverge or crash.
func TestChaosPartitionDegrades(t *testing.T) {
	const seed, maxEpochs, partitionSteps = 42, chaosEpochs, 12
	s := chaosStream(t, seed)
	reg := telemetry.NewRegistry()
	mon := chaosMonitor(t, s, 0.6, reg)

	var reps []*monitor.EpochReport
	ch, err := NewChaosHarness(ChaosConfig{
		Coordinator: CoordinatorConfig{
			Machines: 100,
			Shards:   2,
			Monitor:  mon,
			OnReport: func(rep *monitor.EpochReport, _ *crisis.Instance) {
				reps = append(reps, rep)
			},
			Telemetry: reg,
		},
		Aggregator:      AggregatorConfig{NumMetrics: s.Catalog().Len(), SLA: s.SLA()},
		Faults:          mustLinkFaults(t, LinkFaultConfig{Seed: 5, Telemetry: reg}),
		FlushAfterSteps: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	partitionedAt := -1
	degraded := 0
	for i := 0; i < maxEpochs; i++ {
		rows, act, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.Step(metrics.Epoch(i), rows, act); err != nil {
			t.Fatal(err)
		}
		if partitionedAt < 0 && len(reps) > 0 && reps[len(reps)-1].CrisisActive {
			// First sign of a crisis: cut shard 1 off mid-incident.
			partitionedAt = i
			ch.cfg.Faults.Partition(1, ch.step+partitionSteps)
		}
		if len(reps) > 0 && reps[len(reps)-1].Degraded {
			degraded++
		}
	}
	if partitionedAt < 0 {
		t.Fatal("no crisis detected over the scripted trace")
	}
	if err := ch.Drain(100); err != nil {
		t.Fatal(err)
	}
	if degraded == 0 {
		t.Fatal("partition past the lateness budget never degraded the fleet")
	}
	last := reps[len(reps)-1]
	if last.Degraded {
		t.Fatalf("fleet still degraded at epoch %d, long after the heal", last.Epoch)
	}
	if v, _ := reg.Value("dcfp_fleet_epochs_merged_total", telemetry.Label{Key: "completeness", Value: "partial"}); v == 0 {
		t.Error("no partial merges despite a partition outlasting the budget")
	}
	// The healed backlog replays as stale frames — delivered, not lost.
	if v, _ := reg.Value("dcfp_fleet_frames_total", telemetry.Label{Key: "result", Value: "stale"}); v == 0 {
		t.Error("healed partition produced no stale replays")
	}
	if v, _ := reg.Value("dcfp_fleet_fault_injected_total", telemetry.Label{Key: "fault", Value: "partition"}); v == 0 {
		t.Error("partition fault counter never moved")
	}
}

// TestChaosCoordinatorRestartEquivalence crash-restarts the coordinator in
// the middle of a crisis: a fresh monitor restored from the in-memory
// checkpoint plus a fresh coordinator restored from the matching state must
// fast-forward on the shards' replayed backlogs to an advice stream
// byte-identical to the uninterrupted single-node run.
func TestChaosCoordinatorRestartEquivalence(t *testing.T) {
	const seed, epochs, checkpointEvery = 42, chaosEpochs, 24
	s1, sN := chaosStream(t, seed), chaosStream(t, seed)
	m1 := chaosMonitor(t, s1, 0, nil)
	reg := telemetry.NewRegistry()
	mF := chaosMonitor(t, sN, 0, reg)

	fleetReps := map[metrics.Epoch]*monitor.EpochReport{}
	opF := chaosOperator(mF)
	var opErr error
	onReport := func(rep *monitor.EpochReport, act *crisis.Instance) {
		fleetReps[rep.Epoch] = rep
		if err := observe(opF, rep, act); err != nil && opErr == nil {
			opErr = err
		}
	}
	ch, err := NewChaosHarness(ChaosConfig{
		Coordinator: CoordinatorConfig{
			Machines:  100,
			Shards:    2,
			Monitor:   mF,
			OnReport:  onReport,
			Telemetry: reg,
		},
		Aggregator:      AggregatorConfig{NumMetrics: sN.Catalog().Len(), SLA: sN.SLA()},
		FlushAfterSteps: 4,
		ReplayCapacity:  64,
	})
	if err != nil {
		t.Fatal(err)
	}

	// In-memory checkpoint: monitor bytes + coordinator state + the
	// operator bookkeeping, all snapshotted as one cut.
	var ckptMon bytes.Buffer
	var ckptCoord CoordinatorState
	var ckptOp monitor.OperatorState
	haveCkpt := false

	op1 := chaosOperator(m1)
	singleReps := make([]*monitor.EpochReport, 0, epochs)
	restarted := false
	crisisSeen := false
	for i := 0; i < epochs; i++ {
		rows1, act, err := s1.Next()
		if err != nil {
			t.Fatal(err)
		}
		rowsN, _, err := sN.Next()
		if err != nil {
			t.Fatal(err)
		}
		r1, err := m1.ObserveEpoch(rows1)
		if err != nil {
			t.Fatal(err)
		}
		singleReps = append(singleReps, r1)
		if err := observe(op1, r1, act); err != nil {
			t.Fatal(err)
		}

		if !restarted && crisisSeen && haveCkpt {
			// Crash-failover mid-crisis: discard the live monitor and
			// coordinator, rebuild both from the checkpoint.
			restarted = true
			mR := chaosMonitor(t, sN, 0, reg)
			if _, err := mR.ReadCheckpoint(bytes.NewReader(ckptMon.Bytes())); err != nil {
				t.Fatal(err)
			}
			if _, err := ch.RestartCoordinator(mR, ckptCoord); err != nil {
				t.Fatal(err)
			}
			mF = mR
			opF = chaosOperator(mR)
			opF.SetState(ckptOp)
		}

		if err := ch.Step(metrics.Epoch(i), rowsN, act); err != nil {
			t.Fatal(err)
		}
		if opErr != nil {
			t.Fatal(opErr)
		}
		if rep, ok := fleetReps[metrics.Epoch(i)]; ok && rep.CrisisActive {
			crisisSeen = true
		}
		if i%checkpointEvery == 0 && i > 0 && !restarted {
			ckptMon.Reset()
			ch.Coordinator.Sync(func(st CoordinatorState) {
				ckptCoord = st
				if err := mF.WriteCheckpoint(&ckptMon, monitor.CheckpointMeta{SourceEpoch: int64(i)}); err != nil {
					t.Error(err)
				}
			})
			ckptOp = opF.State()
			haveCkpt = true
		}
	}
	if !restarted {
		t.Fatal("no mid-crisis restart happened over the scripted trace")
	}
	if err := ch.Drain(200); err != nil {
		t.Fatal(err)
	}
	if opErr != nil {
		t.Fatal(opErr)
	}
	for i, r1 := range singleReps {
		rF := fleetReps[metrics.Epoch(i)]
		if rF == nil {
			t.Fatalf("epoch %d: fleet never reported", i)
		}
		if !reflect.DeepEqual(r1, rF) {
			t.Fatalf("epoch %d: reports diverge after coordinator restart:\nsingle: %+v\nfleet:  %+v", i, r1, rF)
		}
	}
	if !reflect.DeepEqual(m1.Stats(), mF.Stats()) {
		t.Fatalf("final stats diverge:\nsingle: %+v\nfleet:  %+v", m1.Stats(), mF.Stats())
	}
}

func mustLinkFaults(t *testing.T, cfg LinkFaultConfig) *LinkFaults {
	t.Helper()
	l, err := NewLinkFaults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}
