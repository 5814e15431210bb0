package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
	"dcfp/internal/sla"
	"dcfp/internal/telemetry"
)

func fleetStream(t *testing.T, seed int64) *dcsim.Stream {
	t.Helper()
	scfg := dcsim.DefaultStreamConfig(seed)
	scfg.WarmupEpochs = 48
	scfg.MeanGapEpochs = 24
	s, err := dcsim.NewStream(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fleetMonitor(t *testing.T, s *dcsim.Stream, minCov float64, reg *telemetry.Registry) *monitor.Monitor {
	t.Helper()
	cfg := monitor.DefaultConfig(s.Catalog(), s.SLA())
	cfg.ThresholdRefreshEpochs = 48
	cfg.MinEpochsForThresholds = 96
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

func fleetHarness(t *testing.T, s *dcsim.Stream, mon *monitor.Monitor, shards int, deadAfter int,
	reg *telemetry.Registry, onReport func(*monitor.EpochReport, *crisis.Instance)) *Harness {
	t.Helper()
	machines := dcsim.DefaultStreamConfig(0).Machines
	h, err := NewHarness(CoordinatorConfig{
		Machines:        machines,
		Shards:          shards,
		Monitor:         mon,
		FlushAfter:      -1, // tests drive ForceFlush deterministically
		DeadAfterEpochs: deadAfter,
		OnReport:        onReport,
		Telemetry:       reg,
	}, AggregatorConfig{
		NumMetrics: s.Catalog().Len(),
		SLA:        s.SLA(),
		Telemetry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestFleetEquivalence is the tentpole proof obligation: a 2-shard and a
// 4-shard fleet — aggregators slicing the epoch matrix, frames through the
// gob wire codec, coordinator merging into its monitor — produce
// EpochReport/Advice streams byte-identical to the single-node reference
// over the seeded 420-epoch trace with exact estimators.
func TestFleetEquivalence(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			const seed, epochs = 42, 420
			s1, sN := fleetStream(t, seed), fleetStream(t, seed)
			m1 := fleetMonitor(t, s1, 0, nil)
			mF := fleetMonitor(t, sN, 0, nil)

			var fleetReps []*monitor.EpochReport
			h := fleetHarness(t, sN, mF, shards, 0, nil, func(rep *monitor.EpochReport, _ *crisis.Instance) {
				fleetReps = append(fleetReps, rep)
			})

			lastActive := false
			label := ""
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
				if err := h.Step(metrics.Epoch(i), rowsN, act); err != nil {
					t.Fatal(err)
				}
				if len(fleetReps) != i+1 {
					t.Fatalf("epoch %d: coordinator emitted %d reports", i, len(fleetReps))
				}
				rF := fleetReps[i]
				if !reflect.DeepEqual(r1, rF) {
					t.Fatalf("epoch %d: single-node and fleet reports diverge:\nsingle: %+v\nfleet:  %+v", i, r1, rF)
				}
				if act != nil {
					label = fmt.Sprintf("type-%d", act.Type)
				}
				if lastActive && !r1.CrisisActive {
					recs := m1.Crises()
					id := recs[len(recs)-1].ID
					if err := m1.ResolveCrisis(id, label); err != nil {
						t.Fatal(err)
					}
					if err := mF.ResolveCrisis(id, label); err != nil {
						t.Fatal(err)
					}
				}
				lastActive = r1.CrisisActive
			}
			if !reflect.DeepEqual(m1.Stats(), mF.Stats()) {
				t.Fatalf("final stats diverge:\nsingle: %+v\nfleet:  %+v", m1.Stats(), mF.Stats())
			}
			if got, want := mF.Crises(), m1.Crises(); !reflect.DeepEqual(got, want) {
				t.Fatalf("crisis records diverge")
			}
		})
	}
}

// TestFleetKillShard kills one of two aggregators the moment a crisis is
// first reported. The acceptance contract: the fleet degrades to sub-floor
// coverage — crisis state frozen, Advice.Degraded set — instead of
// diverging or crashing, and once the dead shard's ranges are rebalanced
// onto the survivor, coverage and the pipeline recover.
func TestFleetKillShard(t *testing.T) {
	const seed, maxEpochs, deadAfter = 42, 420, 3
	s := fleetStream(t, seed)
	reg := telemetry.NewRegistry()
	// MinCoverage 0.6: losing one of two 50-machine shards leaves exactly
	// 0.5 coverage, which must land below the floor (the comparison is
	// strict).
	mon := fleetMonitor(t, s, 0.6, reg)
	var reps []*monitor.EpochReport
	h := fleetHarness(t, s, mon, 2, deadAfter, reg, func(rep *monitor.EpochReport, _ *crisis.Instance) {
		reps = append(reps, rep)
	})

	killed := -1
	recovered := -1
	degradedSeen, adviceDegraded := 0, 0
	for i := 0; i < maxEpochs; i++ {
		rows, act, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Step(metrics.Epoch(i), rows, act); err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		rep := reps[len(reps)-1]
		// Kill at the onset of a crisis that is actually being identified
		// (the first crises predate the threshold warmup and emit no
		// advice at all).
		if killed < 0 && rep.CrisisActive && rep.Advice != nil {
			h.Stop(1)
			killed = i
			continue
		}
		if killed < 0 {
			continue
		}
		if recovered < 0 {
			if rep.Degraded {
				degradedSeen++
				if rep.Coverage >= 0.6 {
					t.Fatalf("epoch %d: degraded at coverage %v", i, rep.Coverage)
				}
				if !rep.CrisisActive {
					t.Fatalf("epoch %d: crisis state moved during degraded epoch", i)
				}
				if rep.Advice != nil {
					if !rep.Advice.Degraded {
						t.Fatalf("epoch %d: advice during sub-floor coverage not flagged degraded", i)
					}
					adviceDegraded++
				}
			} else {
				// First non-degraded epoch after the kill: the rebalance
				// must have handed shard 1's machines to shard 0.
				recovered = i
				if rep.Coverage != 1 {
					t.Fatalf("epoch %d: recovered with coverage %v", i, rep.Coverage)
				}
			}
		}
	}
	if killed < 0 {
		t.Fatal("no crisis ever became active")
	}
	if degradedSeen < deadAfter {
		t.Fatalf("only %d degraded epochs before recovery, want >= %d", degradedSeen, deadAfter)
	}
	if adviceDegraded == 0 {
		t.Fatal("no degraded advice observed during the frozen crisis")
	}
	if recovered < 0 {
		t.Fatal("fleet never recovered after rebalance")
	}
	asn := h.Coordinator.Assignment()
	if asn.Version < 2 {
		t.Fatalf("assignment version %d, want a rebalance", asn.Version)
	}
	if len(asn.Ranges[1]) != 0 {
		t.Fatalf("dead shard still owns ranges: %+v", asn.Ranges[1])
	}
	if got := asn.Owned(0); got != asn.Machines {
		t.Fatalf("survivor owns %d of %d machines", got, asn.Machines)
	}
	if v, ok := reg.Value("dcfp_fleet_rebalances_total"); !ok || v != 1 {
		t.Fatalf("dcfp_fleet_rebalances_total = %v, %v", v, ok)
	}
	if v, ok := reg.Value("dcfp_fleet_shards_live"); !ok || v != 1 {
		t.Fatalf("dcfp_fleet_shards_live = %v, %v", v, ok)
	}
	if v, ok := reg.Value("dcfp_fleet_epochs_merged_total", telemetry.Label{Key: "completeness", Value: "partial"}); !ok || v < float64(deadAfter) {
		t.Fatalf("partial merges = %v, %v", v, ok)
	}
}

// TestStaticAssignment covers the split and rebalance arithmetic.
func TestStaticAssignment(t *testing.T) {
	a, err := StaticAssignment(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	prevHi := 0
	for s := 0; s < 4; s++ {
		for _, r := range a.Ranges[s] {
			if r.Lo != prevHi {
				t.Fatalf("shard %d range %+v not contiguous after %d", s, r, prevHi)
			}
			prevHi = r.Hi
			total += r.Len()
		}
	}
	if total != 100 || prevHi != 100 {
		t.Fatalf("assignment covers %d machines ending at %d", total, prevHi)
	}

	b, err := a.Rebalance(2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Version != a.Version+1 {
		t.Fatalf("rebalance version %d", b.Version)
	}
	if len(b.Ranges[2]) != 0 {
		t.Fatal("dead shard kept ranges")
	}
	covered := make([]bool, 100)
	for s := range b.Ranges {
		for _, r := range b.Ranges[s] {
			for i := r.Lo; i < r.Hi; i++ {
				if covered[i] {
					t.Fatalf("machine %d covered twice", i)
				}
				covered[i] = true
			}
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("machine %d uncovered after rebalance", i)
		}
	}
	// The original assignment is untouched.
	if len(a.Ranges[2]) == 0 {
		t.Fatal("Rebalance mutated its receiver")
	}

	if _, err := StaticAssignment(0, 2); err == nil {
		t.Fatal("want error for zero machines")
	}
	if _, err := StaticAssignment(10, 0); err == nil {
		t.Fatal("want error for zero shards")
	}
	if _, err := a.Rebalance(9); err == nil {
		t.Fatal("want error for out-of-range shard")
	}
}

// TestFrameRoundTrip exercises the wire codec: row width, the columns of
// the reporting machines only, ground truth, and header validation.
func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{
		Shard: 1, Epoch: 7, AssignVersion: 1, Machines: 4, NumMetrics: 2,
		Blocks: []Block{{
			Lo:        2,
			Viol:      []bool{true, false},
			Reporting: []bool{true, false},
			Cols:      []float64{1, 2},
		}},
		Status:  sla.EpochStatus{ViolatingPerKPI: []int{1}, ViolatingAny: 1, Machines: 2},
		Dropped: 3,
		Active:  &crisis.Instance{ID: "L01", Type: 2, Start: 5, Duration: 8, Labeled: true, Severity: 1.1},
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Shard != 1 || g.Epoch != 7 || g.Machines != 4 || g.NumMetrics != 2 || g.Dropped != 3 {
		t.Fatalf("header fields lost: %+v", g)
	}
	if !reflect.DeepEqual(g.Blocks[0].Cols, []float64{1, 2}) {
		t.Fatalf("columns lost: %+v", g.Blocks[0].Cols)
	}
	if g.Active == nil || g.Active.ID != "L01" || !g.Active.Labeled {
		t.Fatalf("ground truth lost: %+v", g.Active)
	}

	if _, err := DecodeFrame(data[:4]); err == nil {
		t.Fatal("want error for truncated frame")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := DecodeFrame(bad); err == nil {
		t.Fatal("want error for bad magic")
	}
	bad = append([]byte(nil), data...)
	bad[len(frameMagic)+3] = 99
	if _, err := DecodeFrame(bad); err == nil {
		t.Fatal("want error for unknown version")
	}
}

// TestEpochFrameAfterErrorMatchesFresh: an epoch EpochFrame refuses (here a
// row of the wrong width, after five good rows) leaves nothing behind — the
// next frame is byte for byte a fresh aggregator's — and its observe_shard
// trace still reaches the ring, marked as failed.
func TestEpochFrameAfterErrorMatchesFresh(t *testing.T) {
	const machines, nm = 8, 3
	tracer := telemetry.NewTracer(4)
	newAgg := func(tr *telemetry.Tracer) *Aggregator {
		agg, err := NewAggregator(AggregatorConfig{
			Shard: 0, Shards: 1, Machines: machines, NumMetrics: nm, Tracer: tr,
			SLA: sla.Config{KPIs: []sla.KPI{{Name: "latency", Metric: 0, Threshold: 100}}, CrisisFraction: 0.1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	epoch := func(base float64) [][]float64 {
		rows := make([][]float64, machines)
		for i := range rows {
			rows[i] = []float64{base + float64(i), 2 * base, 3 * base}
		}
		return rows
	}
	bad := epoch(10)
	bad[5] = bad[5][:2]
	clean := epoch(20)

	// Frame bytes are compared untraced: spans carry wall-clock offsets.
	dirty, fresh := newAgg(nil), newAgg(nil)
	if _, err := dirty.EpochFrame(0, bad, nil); err == nil {
		t.Fatal("want an error for a two-cell row in a three-metric fleet")
	}
	got, err := dirty.EpochFrame(1, clean, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.EpochFrame(1, clean, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frame after a failed epoch is %d bytes, a fresh aggregator's %d: the failed epoch leaked into it", len(got), len(want))
	}

	if _, err := newAgg(tracer).EpochFrame(0, bad, nil); err == nil {
		t.Fatal("want an error for a two-cell row in a three-metric fleet")
	}
	snaps := tracer.Snapshots()
	if len(snaps) == 0 || snaps[0].Name != "observe_shard" {
		t.Fatalf("failed epoch left no observe_shard trace in the ring (latest first: %+v)", snaps)
	}
	snap := snaps[0]
	if !slices.Contains(snap.Attrs, telemetry.Attr{Key: "error", Value: 1}) {
		t.Fatalf("failed epoch's trace carries no error attr: %+v", snap.Attrs)
	}
}

// TestCoordinatorFlowControl covers throttle, stale and rejection acks.
func TestCoordinatorFlowControl(t *testing.T) {
	s := fleetStream(t, 3)
	mon := fleetMonitor(t, s, 0, nil)
	machines := dcsim.DefaultStreamConfig(0).Machines
	coord, err := NewCoordinator(CoordinatorConfig{
		Machines: machines, Shards: 2, Monitor: mon, Window: 2, FlushAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(AggregatorConfig{
		Shard: 0, Shards: 2, Machines: machines,
		NumMetrics: s.Catalog().Len(), SLA: s.SLA(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}

	frame := func(e metrics.Epoch) []byte {
		data, err := agg.EpochFrame(e, rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	// Ahead of the window: throttled, not stored.
	ack, code := coord.HandleFrameBytes(frame(5))
	if !ack.Throttle || code != 429 {
		t.Fatalf("want throttle, got %+v code %d", ack, code)
	}
	// In window: accepted; epoch 0 incomplete (shard 1 missing).
	if ack, code = coord.HandleFrameBytes(frame(0)); !ack.OK || code != 200 {
		t.Fatalf("want accept, got %+v code %d", ack, code)
	}
	if coord.Watermark() != 0 {
		t.Fatalf("watermark moved to %d without shard 1", coord.Watermark())
	}
	// Force-flush merges epoch 0 without shard 1.
	if !coord.ForceFlush() {
		t.Fatal("force flush did nothing")
	}
	if coord.Watermark() != 1 {
		t.Fatalf("watermark %d after flush", coord.Watermark())
	}
	// A frame below the watermark acks stale.
	if ack, code = coord.HandleFrameBytes(frame(0)); !ack.Stale || code != 200 {
		t.Fatalf("want stale, got %+v code %d", ack, code)
	}
	// Garbage is rejected outright: too short for a header is in-transit
	// damage (400, worth a retry); a whole header with the wrong magic is a
	// foreign sender (409, it is not).
	if _, code = coord.HandleFrameBytes([]byte("not a frame")); code != 400 {
		t.Fatalf("truncated garbage answered with code %d", code)
	}
	if ack, code = coord.HandleFrameBytes([]byte("not a frame at all")); code != 409 || ack.Error == "" {
		t.Fatalf("garbage answered %+v with code %d", ack, code)
	}
	// Wrong geometry is rejected.
	bad := &Frame{Shard: 7, Epoch: 1, Machines: machines}
	data, err := bad.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if ack, code = coord.HandleFrameBytes(data); ack.OK || code != 409 {
		t.Fatalf("out-of-range shard accepted: %+v code %d", ack, code)
	}
}
