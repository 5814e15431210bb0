package dcsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"dcfp/internal/crisis"
	"dcfp/internal/metrics"
)

// cellHasher folds generated epochs into a sha256 over every cell's
// Float64bits, in machine then metric order.
type cellHasher struct {
	h   hash.Hash
	buf [8]byte
}

func newCellHasher() *cellHasher { return &cellHasher{h: sha256.New()} }

func (c *cellHasher) put(v uint64) {
	binary.LittleEndian.PutUint64(c.buf[:], v)
	c.h.Write(c.buf[:])
}

func (c *cellHasher) rows(rows [][]float64) {
	for _, row := range rows {
		for _, v := range row {
			c.put(math.Float64bits(v))
		}
	}
}

func (c *cellHasher) sum() string { return hex.EncodeToString(c.h.Sum(nil)[:8]) }

// TestStreamDigest pins the streamed generator bit for bit. Simulate's trace
// is pinned by TestSimulateSerialParallelEquivalence; these three streams
// cover Stream.NextContext, its crisis and chaos effects, and the fault
// injector on top of it. Any change to a cell's floating-point operations
// or to the order of the RNG draws moves a digest: the per-cell product
// ((base·intensity^loadExp)·mf)·(1+shared)·(1+noise) is a contract.
func TestStreamDigest(t *testing.T) {
	t.Run("steady-2000", func(t *testing.T) {
		cfg := DefaultStreamConfig(21)
		cfg.Machines = 2000
		cfg.WarmupEpochs = 1 << 40 // never schedules a crisis
		s, err := NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := newCellHasher()
		for e := 0; e < 4; e++ {
			rows, active, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if active != nil {
				t.Fatalf("epoch %d: unexpected crisis %s", e, active.ID)
			}
			c.rows(rows)
		}
		if got, want := c.sum(), "139053baabe131e2"; got != want {
			t.Errorf("steady stream digest %s, want %s", got, want)
		}
	})

	t.Run("scripted-100", func(t *testing.T) {
		// One crisis of every type, each preceded by its chaos pad; type I's
		// second half runs its late effects.
		cfg := DefaultStreamConfig(22)
		cfg.WarmupEpochs = 8
		const first, every, dur = 16, 24, 8
		for i := 0; i < crisis.NumTypes; i++ {
			cfg.Script = append(cfg.Script, ScriptedCrisis{
				Start:    metrics.Epoch(first + i*every),
				Duration: dur,
				Type:     crisis.Type(i),
			})
		}
		s, err := NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := newCellHasher()
		seen := map[crisis.Type]int{}
		for e := 0; e < first+crisis.NumTypes*every; e++ {
			rows, active, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if active != nil {
				seen[active.Type]++
			}
			c.rows(rows)
		}
		if len(seen) != crisis.NumTypes {
			t.Fatalf("saw %d crisis types, want %d", len(seen), crisis.NumTypes)
		}
		if got, want := c.sum(), "b95c4327cdd0dd8a"; got != want {
			t.Errorf("scripted stream digest %s, want %s", got, want)
		}
	})

	t.Run("faulty-200", func(t *testing.T) {
		cfg := DefaultStreamConfig(23)
		cfg.Machines = 200
		cfg.WarmupEpochs = 20
		cfg.MeanGapEpochs = 30
		s, err := NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fc := DefaultFaultConfig(30)
		fc.DropoutRate, fc.BlankRate, fc.CorruptRate = 0.004, 0.01, 0.002
		inj, err := NewFaultInjector(s, fc)
		if err != nil {
			t.Fatal(err)
		}
		c := newCellHasher()
		for i := 0; i < 120; i++ {
			ep, err := inj.Next()
			if err != nil {
				t.Fatal(err)
			}
			c.put(uint64(ep.Epoch))
			c.put(uint64(len(ep.Rows)))
			for _, row := range ep.Rows {
				c.put(uint64(len(row))) // 0 for a dropped-out machine
			}
			c.rows(ep.Rows)
			inj.Recycle(ep)
		}
		st := inj.Stats()
		if st.MachineDrops == 0 || st.CellsBlanked == 0 || st.CellsCorrupt == 0 {
			t.Fatalf("fault classes not exercised: %+v", st)
		}
		if got, want := c.sum(), "b13cf44a63bc44b3"; got != want {
			t.Errorf("faulty stream digest %s, want %s", got, want)
		}
	})
}
