package dcsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"sort"
	"testing"

	"dcfp/internal/metrics"
)

// TestSimulateSerialParallelEquivalence is the determinism contract of the
// per-epoch RNG split: any worker count must produce a byte-identical Trace,
// because all serially-dependent randomness (schedules, chaos, machine
// spread, workload, shared drift) is drawn up front and epoch noise comes
// from streams derived from (Seed, epoch) alone.
func TestSimulateSerialParallelEquivalence(t *testing.T) {
	cfg := SmallConfig(42)
	cfg.BackgroundDays = 3
	cfg.UnlabeledDays = 7
	cfg.LabeledDays = 45
	cfg.UnlabeledCrises = 2

	serialCfg := cfg
	serialCfg.Workers = 1
	want, err := Simulate(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	// The serial trace itself is pinned, so a change to how epochs are
	// aggregated or labelled cannot hide behind an equally changed
	// parallel path.
	const wantDigest = "8d85d1df03039c0a"
	if got := traceDigest(want); got != wantDigest {
		t.Fatalf("serial trace digest %s, want %s", got, wantDigest)
	}

	for _, workers := range []int{2, 3, 8} {
		pcfg := cfg
		pcfg.Workers = workers
		got, err := Simulate(pcfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.NumEpochs() != want.NumEpochs() {
			t.Fatalf("workers=%d: %d epochs, want %d", workers, got.NumEpochs(), want.NumEpochs())
		}
		for e := metrics.Epoch(0); int(e) < want.NumEpochs(); e++ {
			ra, _ := want.Track.EpochRow(e)
			rb, _ := got.Track.EpochRow(e)
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("workers=%d: track differs at epoch %d, col %d: %v != %v",
						workers, e, i, ra[i], rb[i])
				}
			}
		}
		if !reflect.DeepEqual(got.Status, want.Status) {
			t.Fatalf("workers=%d: Status differs", workers)
		}
		if !reflect.DeepEqual(got.InCrisis, want.InCrisis) {
			t.Fatalf("workers=%d: InCrisis differs", workers)
		}
		if !reflect.DeepEqual(got.Episodes, want.Episodes) {
			t.Fatalf("workers=%d: Episodes differ", workers)
		}
		if !reflect.DeepEqual(got.Instances, want.Instances) {
			t.Fatalf("workers=%d: Instances differ", workers)
		}
		if len(got.fs) != len(want.fs) {
			t.Fatalf("workers=%d: %d FS epochs, want %d", workers, len(got.fs), len(want.fs))
		}
		for e, fw := range want.fs {
			fg, ok := got.fs[e]
			if !ok {
				t.Fatalf("workers=%d: FS epoch %d missing", workers, e)
			}
			if !reflect.DeepEqual(fg, fw) {
				t.Fatalf("workers=%d: FS epoch %d differs", workers, e)
			}
		}
	}
}

// traceDigest hashes what Simulate computes from the generated rows: every
// Track value's bits, each epoch's Status and InCrisis, and the retained
// feature-selection rows with their violation labels, in epoch order.
func traceDigest(tr *Trace) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	for e := metrics.Epoch(0); int(e) < tr.NumEpochs(); e++ {
		row, _ := tr.Track.EpochRow(e)
		for _, v := range row {
			put(math.Float64bits(v))
		}
		st := tr.Status[e]
		for _, n := range st.ViolatingPerKPI {
			put(uint64(n))
		}
		put(uint64(st.ViolatingAny))
		put(uint64(st.Machines))
		flag(st.InCrisis)
		flag(tr.InCrisis[e])
	}
	fsEpochs := make([]int, 0, len(tr.fs))
	for e := range tr.fs {
		fsEpochs = append(fsEpochs, int(e))
	}
	sort.Ints(fsEpochs)
	for _, e := range fsEpochs {
		fse := tr.fs[metrics.Epoch(e)]
		put(uint64(e))
		for i, x := range fse.X {
			for _, v := range x {
				put(math.Float64bits(v))
			}
			flag(fse.Violating[i])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestSimulateParallelRace drives the parallel generator with more workers
// than CPUs; its real assertions run under -race in CI (the fan-out writes
// to disjoint epoch slots of shared storage).
func TestSimulateParallelRace(t *testing.T) {
	cfg := SmallConfig(7)
	cfg.BackgroundDays = 2
	cfg.UnlabeledDays = 5
	cfg.LabeledDays = 45
	cfg.UnlabeledCrises = 1
	cfg.Workers = 8
	tr, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEpochs() != 52*metrics.EpochsPerDay {
		t.Fatalf("epochs = %d", tr.NumEpochs())
	}
	if len(tr.LabeledCrises()) != 19 {
		t.Fatalf("labeled crises detected = %d", len(tr.LabeledCrises()))
	}
}

// BenchmarkEpochGen measures epoch generation. The "stream" case is the
// per-epoch hot path in isolation (rows + crisis effects, no aggregation);
// the "simulate" cases run the full pipeline — rows, quantile aggregation,
// SLA evaluation, FS retention — per worker count.
func BenchmarkEpochGen(b *testing.B) {
	b.Run("stream", func(b *testing.B) {
		s, err := NewStream(DefaultStreamConfig(11))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Next(); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Sub-benchmark names must not end in "-<digits>": the benchgate tool
	// strips a trailing -N as the GOMAXPROCS suffix Go appends on
	// multi-core machines.
	for _, bc := range []struct {
		name    string
		workers int
	}{{"simulate-serial", 1}, {"simulate-parallel", 4}} {
		workers := bc.workers
		b.Run(bc.name, func(b *testing.B) {
			cfg := SmallConfig(42)
			cfg.BackgroundDays = 1
			cfg.UnlabeledDays = 1
			cfg.LabeledDays = 45
			cfg.UnlabeledCrises = 0
			cfg.Workers = workers
			epochs := (cfg.BackgroundDays + cfg.UnlabeledDays + cfg.LabeledDays) * metrics.EpochsPerDay
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, err := Simulate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if tr.NumEpochs() != epochs {
					b.Fatal("bad trace")
				}
			}
		})
	}
}
