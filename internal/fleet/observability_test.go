package fleet

import (
	"io"
	"strconv"
	"sync"
	"testing"

	"dcfp/internal/dcsim"
	"dcfp/internal/metrics"
	"dcfp/internal/telemetry"
)

// TestFrameObservabilityRoundTrip proves the observability section
// survives the wire codec.
func TestFrameObservabilityRoundTrip(t *testing.T) {
	f := &Frame{
		Shard:    1,
		Epoch:    7,
		Machines: 4,
		TraceID:  telemetry.EpochTraceID(7),
		Spans: []telemetry.SpanSnapshot{
			{Name: "ingest", Parent: -1, StartOffsetSeconds: 0.001, DurationSeconds: 0.002},
			{Name: "filter", Parent: 0, StartOffsetSeconds: 0.0015, DurationSeconds: 0.0005,
				Attrs: []telemetry.Attr{{Key: "lo", Value: 2}}},
		},
		Metrics: []telemetry.SeriesValue{
			{Name: "dcfp_fleet_frames_shipped_total", Value: 8},
			{Name: "dcfp_fleet_ship_seconds_sum",
				Labels: []telemetry.Label{{Key: "shard", Value: "1"}}, Value: 0.25},
		},
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != f.TraceID {
		t.Fatalf("trace id %x, want %x", got.TraceID, f.TraceID)
	}
	if len(got.Spans) != 2 || got.Spans[1].Name != "filter" || got.Spans[1].Parent != 0 ||
		len(got.Spans[1].Attrs) != 1 || got.Spans[1].Attrs[0].Key != "lo" {
		t.Fatalf("spans mangled: %+v", got.Spans)
	}
	if len(got.Metrics) != 2 || got.Metrics[1].Value != 0.25 ||
		got.Metrics[1].Labels[0].Value != "1" {
		t.Fatalf("metrics mangled: %+v", got.Metrics)
	}
}

// fedValue reads one federated dcfp_fleet_shard_* series from the
// coordinator's registry.
func fedValue(t *testing.T, reg *telemetry.Registry, name, shard string) (float64, bool) {
	t.Helper()
	for _, sv := range reg.Gather() {
		if sv.Name != name {
			continue
		}
		for _, l := range sv.Labels {
			if l.Key == "shard" && l.Value == shard {
				return sv.Value, true
			}
		}
	}
	return 0, false
}

// TestFederationFreezesDuringPartition drives two aggregators with their
// own registries into a shared coordinator and severs shard 1 mid-run: its
// federated series must freeze at the last shipped values — not vanish —
// then catch back up to the shard-local registry once the link heals.
func TestFederationFreezesDuringPartition(t *testing.T) {
	s := fleetStream(t, 7)
	regC := telemetry.NewRegistry()
	mon := fleetMonitor(t, s, 0, nil)
	coord, err := NewCoordinator(CoordinatorConfig{
		Machines:   dcsim.DefaultStreamConfig(0).Machines,
		Shards:     2,
		Monitor:    mon,
		FlushAfter: -1,
		Telemetry:  regC,
	})
	if err != nil {
		t.Fatal(err)
	}
	shardRegs := []*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	loads := make([]*telemetry.Gauge, 2)
	aggs := make([]*Aggregator, 2)
	for sh := range aggs {
		loads[sh] = shardRegs[sh].Gauge("dcfp_test_load", "Synthetic per-shard load signal.")
		aggs[sh], err = NewAggregator(AggregatorConfig{
			Shard:      sh,
			Shards:     2,
			Machines:   dcsim.DefaultStreamConfig(0).Machines,
			NumMetrics: s.Catalog().Len(),
			SLA:        s.SLA(),
			Telemetry:  shardRegs[sh],
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	const epochs, cutFrom, healAt = 30, 10, 20
	for e := 0; e < epochs; e++ {
		rows, act, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		for sh, g := range aggs {
			loads[sh].Set(float64(100*sh + e))
			frame, err := g.EpochFrame(metrics.Epoch(e), rows, act)
			if err != nil {
				t.Fatal(err)
			}
			if sh == 1 && e >= cutFrom && e < healAt {
				// Partitioned: the frame is lost in flight.
				continue
			}
			ack, _ := coord.HandleFrameBytes(frame)
			if !ack.OK {
				t.Fatalf("shard %d epoch %d: %s", sh, e, ack.Error)
			}
			g.NoteShipped(metrics.Epoch(e))
		}
		for coord.Watermark() <= metrics.Epoch(e) {
			coord.ForceMerge()
		}

		v0, ok0 := fedValue(t, regC, "dcfp_fleet_shard_test_load", "0")
		v1, ok1 := fedValue(t, regC, "dcfp_fleet_shard_test_load", "1")
		if !ok0 || v0 != float64(e) {
			t.Fatalf("epoch %d: shard 0 federated load %v (present %v), want %d", e, v0, ok0, e)
		}
		switch {
		case e < cutFrom || e >= healAt:
			if !ok1 || v1 != float64(100+e) {
				t.Fatalf("epoch %d: shard 1 federated load %v (present %v), want %d", e, v1, ok1, 100+e)
			}
		default:
			// Frozen, not vanished: the last pre-partition value holds.
			if !ok1 || v1 != float64(100+cutFrom-1) {
				t.Fatalf("epoch %d: partitioned shard 1 federated load %v (present %v), want frozen %d",
					e, v1, ok1, 100+cutFrom-1)
			}
		}
	}

	// The ship histogram federates through its _count/_sum scalar series,
	// and the federated value matches the shard-local registry exactly.
	for sh, reg := range shardRegs {
		local, ok := reg.Value("dcfp_fleet_ship_seconds_count")
		if !ok {
			t.Fatalf("shard %d: local ship histogram missing", sh)
		}
		fed, okF := fedValue(t, regC, "dcfp_fleet_shard_fleet_ship_seconds_count", strconv.Itoa(sh))
		if !okF || fed != local {
			t.Fatalf("shard %d: federated ship count %v (present %v), local %v", sh, fed, okF, local)
		}
	}
}

// TestDistributedTraceStitching is the tracing acceptance run: a seeded
// 420-epoch, 2-aggregator harness must yield one stitched merge_epoch trace
// per epoch whose trace ID is shared by both shards' observe_shard traces,
// with a per-shard graft anchor on the coordinator side.
func TestDistributedTraceStitching(t *testing.T) {
	const seed, epochs, shards = 42, 420, 2
	s := fleetStream(t, seed)
	mon := fleetMonitor(t, s, 0, nil)
	aggTracer := telemetry.NewTracer(shards * epochs)
	coordTracer := telemetry.NewTracer(epochs)
	h, err := NewHarness(CoordinatorConfig{
		Machines:   dcsim.DefaultStreamConfig(0).Machines,
		Shards:     shards,
		Monitor:    mon,
		FlushAfter: -1,
		Tracer:     coordTracer,
	}, AggregatorConfig{
		NumMetrics: s.Catalog().Len(),
		SLA:        s.SLA(),
		Tracer:     aggTracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		rows, act, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Step(metrics.Epoch(e), rows, act); err != nil {
			t.Fatal(err)
		}
	}

	epochAttr := func(snap telemetry.TraceSnapshot) (int64, bool) {
		for _, a := range snap.Attrs {
			if a.Key == "epoch" {
				return a.Value, true
			}
		}
		return 0, false
	}

	merges := coordTracer.Snapshots()
	if len(merges) != epochs {
		t.Fatalf("coordinator recorded %d merge traces, want %d", len(merges), epochs)
	}
	for _, snap := range merges {
		e, ok := epochAttr(snap)
		if snap.Name != "merge_epoch" || !ok {
			t.Fatalf("unexpected coordinator trace %q attrs %+v", snap.Name, snap.Attrs)
		}
		want := strconv.FormatUint(telemetry.EpochTraceID(e), 16)
		if snap.TraceID != want {
			t.Fatalf("epoch %d: merge trace id %q, want %q", e, snap.TraceID, want)
		}
		anchors := map[string]bool{}
		for _, sp := range snap.Spans {
			anchors[sp.Name] = true
		}
		for sh := 0; sh < shards; sh++ {
			if !anchors["shard_"+strconv.Itoa(sh)] {
				t.Fatalf("epoch %d: merge trace missing shard_%d anchor: %+v", e, sh, anchors)
			}
		}
		// The shards' pre-ship spans are stitched in under the anchors
		// (only a shard records a "filter" span; the coordinator's own row
		// filter is its "merge").
		if !anchors["ingest"] || !anchors["filter"] {
			t.Fatalf("epoch %d: remote spans not grafted: %+v", e, anchors)
		}
	}

	perEpoch := map[int64]int{}
	for _, snap := range aggTracer.Snapshots() {
		if snap.Name != "observe_shard" {
			continue
		}
		e, ok := epochAttr(snap)
		if !ok {
			t.Fatalf("observe_shard trace without epoch attr: %+v", snap.Attrs)
		}
		if want := strconv.FormatUint(telemetry.EpochTraceID(e), 16); snap.TraceID != want {
			t.Fatalf("epoch %d: shard trace id %q, want %q", e, snap.TraceID, want)
		}
		perEpoch[e]++
	}
	if len(perEpoch) != epochs {
		t.Fatalf("shard traces cover %d epochs, want %d", len(perEpoch), epochs)
	}
	for e, n := range perEpoch {
		if n != shards {
			t.Fatalf("epoch %d: %d shard traces, want %d", e, n, shards)
		}
	}
}

// TestFederatedScrapeRace scrapes the coordinator's registry — including
// the federated dcfp_fleet_shard_* families — concurrently with frame
// handling and merges. It exists for the -race CI job.
func TestFederatedScrapeRace(t *testing.T) {
	s := fleetStream(t, 11)
	regC := telemetry.NewRegistry()
	mon := fleetMonitor(t, s, 0, nil)
	h, err := NewHarness(CoordinatorConfig{
		Machines:   dcsim.DefaultStreamConfig(0).Machines,
		Shards:     2,
		Monitor:    mon,
		FlushAfter: -1,
		Telemetry:  regC,
	}, AggregatorConfig{
		NumMetrics: s.Catalog().Len(),
		SLA:        s.SLA(),
		Telemetry:  telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					if err := regC.WritePrometheus(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for e := 0; e < 60; e++ {
		rows, act, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Step(metrics.Epoch(e), rows, act); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}
