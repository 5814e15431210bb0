package dcsim

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"dcfp/internal/crisis"
	"dcfp/internal/metrics"
	"dcfp/internal/telemetry"
)

func testStreamConfig(seed int64) StreamConfig {
	cfg := DefaultStreamConfig(seed)
	cfg.Machines = 30
	cfg.WarmupEpochs = 24
	cfg.MeanGapEpochs = 48
	return cfg
}

func TestStreamDeterminism(t *testing.T) {
	a, err := NewStream(testStreamConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStream(testStreamConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 300; e++ {
		ra, ia, err := a.Next()
		if err != nil {
			t.Fatal(err)
		}
		rb, ib, err := b.Next()
		if err != nil {
			t.Fatal(err)
		}
		if (ia == nil) != (ib == nil) {
			t.Fatalf("epoch %d: active mismatch %v vs %v", e, ia, ib)
		}
		if ia != nil && (ia.ID != ib.ID || ia.Type != ib.Type) {
			t.Fatalf("epoch %d: instance mismatch %+v vs %+v", e, ia, ib)
		}
		for m := range ra {
			for j := range ra[m] {
				if ra[m][j] != rb[m][j] {
					t.Fatalf("epoch %d: row[%d][%d] %v != %v", e, m, j, ra[m][j], rb[m][j])
				}
			}
		}
	}
}

// TestStreamCrisisLifecycle drives the stream past its first two injected
// crises and checks that they respect the warmup, arrive in sequence, and
// actually violate the SLA crisis rule for at least part of their span.
func TestStreamCrisisLifecycle(t *testing.T) {
	s, err := NewStream(testStreamConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	first := *s.next // the next scheduled crisis
	if int(first.Start) < 24 {
		t.Fatalf("first crisis at %d starts inside warmup", first.Start)
	}
	if first.ID != "S001" {
		t.Fatalf("first instance ID = %q", first.ID)
	}
	seen := map[string]bool{}
	inCrisisEpochs := 0
	activeEpochs := 0
	reporting := make([]bool, 30)
	for i := range reporting {
		reporting[i] = true
	}
	for e := 0; e < 600; e++ {
		rows, active, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 30 || len(rows[0]) != s.Catalog().Len() {
			t.Fatalf("rows shape %dx%d", len(rows), len(rows[0]))
		}
		if active == nil {
			continue
		}
		seen[active.ID] = true
		activeEpochs++
		status, err := s.SLA().EvaluateMasked(rows, nil, reporting)
		if err != nil {
			t.Fatal(err)
		}
		if status.InCrisis {
			inCrisisEpochs++
		}
	}
	if len(seen) < 2 {
		t.Fatalf("saw %d crises in 600 epochs, want >= 2 (mean gap 48, max duration 16)", len(seen))
	}
	if !seen["S001"] || !seen["S002"] {
		t.Fatalf("instance IDs not sequential: %v", seen)
	}
	if inCrisisEpochs == 0 {
		t.Fatalf("no SLA crisis epochs across %d active epochs", activeEpochs)
	}
	if s.Epoch() != metrics.Epoch(600) {
		t.Fatalf("Epoch() = %d after 600 calls", s.Epoch())
	}
}

func TestStreamTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	cfg := testStreamConfig(11)
	cfg.Telemetry = reg
	cfg.Events = telemetry.NewEventLog(slog.New(slog.NewTextHandler(&buf, nil)))
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2 * 96 // two simulated days
	activeSeen := 0
	for e := 0; e < n; e++ {
		_, active, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if active != nil {
			activeSeen++
		}
	}
	if got := reg.Counter("dcfp_sim_epochs_total", "").Value(); got != n {
		t.Fatalf("sim epochs counter = %d, want %d", got, n)
	}
	if got := reg.Counter("dcfp_sim_crisis_epochs_total", "").Value(); got != uint64(activeSeen) {
		t.Fatalf("crisis epochs counter = %d, want %d", got, activeSeen)
	}
	var injected uint64
	for ty := crisis.Type(0); int(ty) < crisis.NumTypes; ty++ {
		injected += reg.Counter("dcfp_sim_crises_injected_total", "",
			telemetry.Label{Key: "type", Value: ty.String()}).Value()
	}
	if injected == 0 {
		t.Fatal("no injected-crisis counts")
	}
	if got := reg.Histogram("dcfp_sim_epoch_gen_seconds", "", telemetry.TimeBuckets()).Count(); got != n {
		t.Fatalf("epoch gen histogram count = %d, want %d", got, n)
	}
	ev := buf.String()
	if got := strings.Count(ev, "msg=sim.day"); got != 2 {
		t.Fatalf("sim.day events = %d, want 2:\n%.1000s", got, ev)
	}
	if !strings.Contains(ev, "msg=sim.crisis_injected") {
		t.Fatalf("missing crisis_injected event:\n%.1000s", ev)
	}
	if !strings.Contains(ev, "crisis=S001") {
		t.Fatalf("crisis_injected event lacks sequential stream ID:\n%.1000s", ev)
	}
}

// TestSimulateTelemetry checks the batch simulator's counters agree with the
// trace it returns.
func TestSimulateTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	cfg := SmallConfig(5)
	cfg.Telemetry = reg
	cfg.Events = telemetry.NewEventLog(slog.New(slog.NewTextHandler(&buf, nil)))
	tr, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("dcfp_sim_epochs_total", "").Value(); got != uint64(tr.NumEpochs()) {
		t.Fatalf("sim epochs counter = %d, want %d", got, tr.NumEpochs())
	}
	var injected uint64
	for ty := crisis.Type(0); int(ty) < crisis.NumTypes; ty++ {
		injected += reg.Counter("dcfp_sim_crises_injected_total", "",
			telemetry.Label{Key: "type", Value: ty.String()}).Value()
	}
	if injected != uint64(len(tr.Instances)) {
		t.Fatalf("injected counters sum = %d, want %d instances", injected, len(tr.Instances))
	}
	crisisEpochs := 0
	for _, in := range tr.InCrisis {
		if in {
			crisisEpochs++
		}
	}
	if got := reg.Counter("dcfp_sim_crisis_epochs_total", "").Value(); got != uint64(crisisEpochs) {
		t.Fatalf("crisis epochs counter = %d, want %d", got, crisisEpochs)
	}
	days := tr.NumEpochs() / 96
	ev := buf.String()
	if got := strings.Count(ev, "msg=sim.day"); got != days {
		t.Fatalf("sim.day events = %d, want %d", got, days)
	}
	if got := strings.Count(ev, "msg=sim.crisis_injected"); got != len(tr.Instances) {
		t.Fatalf("crisis_injected events = %d, want %d", got, len(tr.Instances))
	}
}
