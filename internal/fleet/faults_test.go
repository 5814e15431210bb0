package fleet

import (
	"errors"
	"reflect"
	"testing"

	"dcfp/internal/telemetry"
)

func testFrameBytes(t *testing.T) []byte {
	t.Helper()
	f := &Frame{Shard: 0, Epoch: 7, Machines: 10, NumMetrics: 3, Blocks: []Block{{
		Lo:        0,
		Viol:      []bool{false, false},
		Reporting: []bool{true, false},
		Cols:      []float64{1, 2, 3},
	}}}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLinkFaultsDeterminism: two injectors with the same seed plan the same
// fates for the same attempt sequence.
func TestLinkFaultsDeterminism(t *testing.T) {
	mk := func() *LinkFaults {
		l, err := NewLinkFaults(LinkFaultConfig{
			Seed: 99, DropRate: 0.2, DupRate: 0.2, DelayRate: 0.3,
			MaxDelaySteps: 3, CorruptRate: 0.1, TruncateRate: 0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	a, b := mk(), mk()
	frame := testFrameBytes(t)
	for step := 0; step < 200; step++ {
		da := a.Plan(step%3, step, frame)
		db := b.Plan(step%3, step, frame)
		if !reflect.DeepEqual(da, db) {
			t.Fatalf("step %d: plans diverge: %v vs %v", step, da, db)
		}
	}
}

// TestLinkFaultsMutatedCopiesRejected: every corrupt/truncated copy the
// injector produces must fail codec validation with ErrCorrupt — never
// decode into a frame that could poison the merge.
func TestLinkFaultsMutatedCopiesRejected(t *testing.T) {
	l, err := NewLinkFaults(LinkFaultConfig{Seed: 3, CorruptRate: 0.5, TruncateRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	frame := testFrameBytes(t)
	mutated, clean := 0, 0
	for step := 0; step < 400; step++ {
		for _, d := range l.Plan(0, step, frame) {
			if !d.Mutated {
				clean++
				if _, err := DecodeFrame(d.Frame); err != nil {
					t.Fatalf("step %d: clean delivery failed decode: %v", step, err)
				}
				continue
			}
			mutated++
			if _, err := DecodeFrame(d.Frame); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("step %d: mutated copy decoded (err=%v), want ErrCorrupt", step, err)
			}
		}
	}
	if mutated < 100 {
		t.Fatalf("only %d mutated deliveries in 400 attempts at 100%% combined rate", mutated)
	}
	_ = clean
}

// TestLinkFaultsPartition: a severed link loses every attempt until the
// heal step, per-shard or fleet-wide.
func TestLinkFaultsPartition(t *testing.T) {
	reg := telemetry.NewRegistry()
	l, err := NewLinkFaults(LinkFaultConfig{Seed: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	frame := testFrameBytes(t)
	l.Partition(1, 5)
	for step := 0; step < 5; step++ {
		if ds := l.Plan(1, step, frame); len(ds) != 0 {
			t.Fatalf("step %d: partitioned shard delivered %d copies", step, len(ds))
		}
		if ds := l.Plan(0, step, frame); len(ds) != 1 || ds[0].Mutated {
			t.Fatalf("step %d: unpartitioned shard got %v", step, ds)
		}
	}
	if l.Partitioned(1, 5) {
		t.Fatal("partition did not heal at its until step")
	}
	if ds := l.Plan(1, 5, frame); len(ds) != 1 {
		t.Fatalf("healed link delivered %d copies", len(ds))
	}
	l.Partition(allShards, 8)
	if !l.Partitioned(0, 7) || !l.Partitioned(1, 7) {
		t.Fatal("fleet-wide partition missed a shard")
	}
	if v, ok := reg.Value("dcfp_fleet_fault_injected_total", telemetry.Label{Key: "fault", Value: "partition"}); !ok || v != 5 {
		t.Fatalf("partition fault counter = %v (ok=%v), want 5", v, ok)
	}
}

// TestLinkFaultsSlowShard: a slow link adds (seeded) extra delay to some
// deliveries without mutating or losing them.
func TestLinkFaultsSlowShard(t *testing.T) {
	l, err := NewLinkFaults(LinkFaultConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	l.SetSlow(0, 2.0)
	frame := testFrameBytes(t)
	delayed := 0
	for step := 0; step < 100; step++ {
		ds := l.Plan(0, step, frame)
		if len(ds) != 1 || ds[0].Mutated {
			t.Fatalf("step %d: slow link got %v", step, ds)
		}
		if ds[0].DelaySteps > 0 {
			delayed++
		}
	}
	if delayed == 0 {
		t.Fatal("mean-2-step slow link delayed nothing in 100 attempts")
	}
	l.SetSlow(0, 0)
	if _, ok := l.slowMean[0]; ok {
		t.Fatal("SetSlow(0) did not clear the slow link")
	}
}

// TestLinkFaultsValidation rejects out-of-range rates.
func TestLinkFaultsValidation(t *testing.T) {
	if _, err := NewLinkFaults(LinkFaultConfig{DropRate: 1.5}); err == nil {
		t.Fatal("accepted DropRate 1.5")
	}
	if _, err := NewLinkFaults(LinkFaultConfig{CorruptRate: -0.1}); err == nil {
		t.Fatal("accepted negative CorruptRate")
	}
	if _, err := NewLinkFaults(LinkFaultConfig{MaxDelaySteps: -1}); err == nil {
		t.Fatal("accepted negative MaxDelaySteps")
	}
}
