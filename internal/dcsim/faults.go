package dcsim

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"

	"dcfp/internal/crisis"
	"dcfp/internal/metrics"
	"dcfp/internal/telemetry"
)

// FaultConfig tunes the telemetry-fault injector. All rates are
// probabilities per decision point (machine-epoch, cell, or epoch as noted);
// zero disables that fault class, so the zero value is a transparent
// pass-through (up to the row deep copy).
type FaultConfig struct {
	// Seed drives the injector's own RNG, independent of the stream's.
	Seed int64

	// DropoutRate is the per-machine-per-epoch probability that a machine
	// goes dark for a stretch of DropoutMinEpochs..DropoutMaxEpochs epochs:
	// its rows become nil (no report at all), mimicking an agent crash or a
	// collector losing a shard.
	DropoutRate      float64
	DropoutMinEpochs int // default 4
	DropoutMaxEpochs int // default 16

	// BlankRate is the per-cell probability a metric value is lost (NaN).
	BlankRate float64
	// CorruptRate is the per-cell probability a value is corrupted to one
	// of NaN, +Inf, -Inf, or a wild spike of SpikeFactor times the value.
	CorruptRate float64
	SpikeFactor float64 // default 1e6

	// DuplicateRate is the per-epoch probability the epoch is emitted twice
	// (same epoch number, same rows), as a retrying collector would.
	DuplicateRate float64
	// DelayRate is the per-epoch probability the epoch is held back and
	// re-emitted 1..DelayMaxEpochs source epochs later, arriving out of
	// order.
	DelayRate      float64
	DelayMaxEpochs int // default 3
	// DropEpochRate is the per-epoch probability the epoch vanishes
	// entirely (never emitted).
	DropEpochRate float64
	// TruncateRate is the per-epoch probability the epoch is cut off
	// mid-machine: only a random prefix of the machine rows survives.
	TruncateRate float64

	// Telemetry optionally counts injected faults (dcfp_fault_* series).
	Telemetry *telemetry.Registry
}

// DefaultFaultConfig returns a mildly hostile telemetry pipeline: sporadic
// machine dropout and cell corruption, occasional epoch-level mishaps.
func DefaultFaultConfig(seed int64) FaultConfig {
	return FaultConfig{
		Seed:             seed,
		DropoutRate:      0.002,
		DropoutMinEpochs: 4,
		DropoutMaxEpochs: 16,
		BlankRate:        0.001,
		CorruptRate:      0.0005,
		SpikeFactor:      1e6,
		DuplicateRate:    0.01,
		DelayRate:        0.01,
		DelayMaxEpochs:   3,
		DropEpochRate:    0.005,
		TruncateRate:     0.005,
	}
}

func (c *FaultConfig) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"DropoutRate", c.DropoutRate}, {"BlankRate", c.BlankRate},
		{"CorruptRate", c.CorruptRate}, {"DuplicateRate", c.DuplicateRate},
		{"DelayRate", c.DelayRate}, {"DropEpochRate", c.DropEpochRate},
		{"TruncateRate", c.TruncateRate},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("dcsim: %s %v out of [0,1]", p.name, p.v)
		}
	}
	c.DropoutMinEpochs = cmp.Or(c.DropoutMinEpochs, 4)
	c.DropoutMaxEpochs = cmp.Or(c.DropoutMaxEpochs, 16)
	if c.DropoutMinEpochs < 1 || c.DropoutMaxEpochs < c.DropoutMinEpochs {
		return fmt.Errorf("dcsim: bad dropout bounds [%d,%d]", c.DropoutMinEpochs, c.DropoutMaxEpochs)
	}
	c.SpikeFactor = cmp.Or(c.SpikeFactor, 1e6)
	if c.SpikeFactor <= 1 {
		return fmt.Errorf("dcsim: SpikeFactor %v must exceed 1", c.SpikeFactor)
	}
	c.DelayMaxEpochs = cmp.Or(c.DelayMaxEpochs, 3)
	if c.DelayMaxEpochs < 1 {
		return fmt.Errorf("dcsim: DelayMaxEpochs %d must be positive", c.DelayMaxEpochs)
	}
	return nil
}

// FaultyEpoch is one emission of the corrupted stream. Epoch is the SOURCE
// epoch number, which — unlike the clean stream — may repeat (duplicates),
// skip (dropped epochs), or go backwards (delayed stragglers); consumers
// sequence by Epoch, typically via monitor.Ingestor. Rows may be nil for
// dropped-out machines, shorter than the machine count (truncated epochs),
// and contain NaN/Inf/spiked cells.
type FaultyEpoch struct {
	Epoch  int64
	Rows   [][]float64
	Active *crisis.Instance

	// mat is the matrix backing Rows; FaultInjector.Recycle takes it back.
	// Every emission owns its matrix (duplicates are cloned), so a recycled
	// epoch can never clobber one still in flight.
	mat *metrics.Matrix
}

// FaultStats counts what the injector has done so far.
type FaultStats struct {
	Epochs        int64 // source epochs consumed
	Emitted       int64 // epochs emitted (≥, = or ≤ Epochs depending on faults)
	MachineDrops  int64 // machine-epochs nulled by dropout stretches
	CellsBlanked  int64
	CellsCorrupt  int64
	Duplicated    int64
	Delayed       int64
	DroppedEpochs int64
	Truncated     int64
}

// FaultInjector wraps a Stream and corrupts its output the way a real
// telemetry pipeline would: machines drop out for stretches, individual
// cells blank or corrupt, and whole epochs duplicate, delay, vanish or
// truncate. All corruption happens on deep copies — the underlying stream's
// reuse of its row buffer never leaks through — and every decision comes
// from the injector's own seeded RNG, so a given (stream seed, fault seed)
// pair replays identically.
type FaultInjector struct {
	cfg    FaultConfig
	src    *Stream
	rng    *rand.Rand
	downTo []int64 // per machine: source epoch the current dropout stretch ends at (exclusive)
	queue  []queuedEpoch
	stats  FaultStats
	tel    *faultMetrics
	free   []*metrics.Matrix // recycled emissions' matrices, reused before any new one
}

type queuedEpoch struct {
	due int64 // emit when the source epoch counter reaches this
	ep  FaultyEpoch
}

type faultMetrics struct {
	machineDrops *telemetry.Counter
	cellsBlanked *telemetry.Counter
	cellsCorrupt *telemetry.Counter
	duplicated   *telemetry.Counter
	delayed      *telemetry.Counter
	dropped      *telemetry.Counter
	truncated    *telemetry.Counter
}

func newFaultMetrics(r *telemetry.Registry) *faultMetrics {
	if r == nil {
		return nil
	}
	return &faultMetrics{
		machineDrops: r.Counter("dcfp_fault_machine_drops_total",
			"Machine-epochs withheld by injected dropout stretches."),
		cellsBlanked: r.Counter("dcfp_fault_cells_blanked_total",
			"Metric cells replaced with NaN by injected blanking."),
		cellsCorrupt: r.Counter("dcfp_fault_cells_corrupted_total",
			"Metric cells replaced with NaN/Inf/spikes by injected corruption."),
		duplicated: r.Counter("dcfp_fault_epochs_duplicated_total",
			"Epochs emitted twice by the injector."),
		delayed: r.Counter("dcfp_fault_epochs_delayed_total",
			"Epochs held back and re-emitted out of order."),
		dropped: r.Counter("dcfp_fault_epochs_dropped_total",
			"Epochs the injector swallowed entirely."),
		truncated: r.Counter("dcfp_fault_epochs_truncated_total",
			"Epochs cut off mid-machine."),
	}
}

// NewFaultInjector wraps src. The config is validated and defaulted.
func NewFaultInjector(src *Stream, cfg FaultConfig) (*FaultInjector, error) {
	if src == nil {
		return nil, fmt.Errorf("dcsim: nil stream")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &FaultInjector{
		cfg:    cfg,
		src:    src,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		downTo: make([]int64, src.cfg.Machines),
		tel:    newFaultMetrics(cfg.Telemetry),
	}, nil
}

// Stats returns cumulative injection counts.
func (f *FaultInjector) Stats() FaultStats { return f.stats }

// Next emits the next faulty epoch (possibly a duplicate or a straggler).
// Unlike Stream.Next the returned rows are NOT reused: each emission owns
// its slices.
func (f *FaultInjector) Next() (FaultyEpoch, error) {
	return f.NextContext(context.Background())
}

// NextContext is Next with cancellation, forwarded to the wrapped stream.
func (f *FaultInjector) NextContext(ctx context.Context) (FaultyEpoch, error) {
	for {
		// Deliver any queued emission that has come due (delayed stragglers
		// and the second copy of duplicated epochs).
		for i, q := range f.queue {
			if q.due <= f.stats.Epochs {
				f.queue = append(f.queue[:i], f.queue[i+1:]...)
				f.stats.Emitted++
				return q.ep, nil
			}
		}
		rows, active, err := f.src.NextContext(ctx)
		if err != nil {
			return FaultyEpoch{}, err
		}
		e := f.stats.Epochs
		f.stats.Epochs++
		corrupted, mat := f.corruptRows(e, rows)
		ep := FaultyEpoch{Epoch: e, Rows: corrupted, Active: cloneInstance(active), mat: mat}

		// Epoch-level faults. An epoch can be truncated AND duplicated/
		// delayed (the second emission gets its own copy of the corrupted
		// snapshot), but dropping wins over everything.
		if f.roll(f.cfg.DropEpochRate) {
			f.stats.DroppedEpochs++
			f.count(func(m *faultMetrics) { m.dropped.Inc() })
			f.Recycle(ep)
			continue
		}
		if f.roll(f.cfg.TruncateRate) && len(ep.Rows) > 1 {
			ep.Rows = ep.Rows[:1+f.rng.Intn(len(ep.Rows)-1)]
			f.stats.Truncated++
			f.count(func(m *faultMetrics) { m.truncated.Inc() })
		}
		if f.roll(f.cfg.DelayRate) {
			due := f.stats.Epochs + int64(1+f.rng.Intn(f.cfg.DelayMaxEpochs))
			f.queue = append(f.queue, queuedEpoch{due: due, ep: ep})
			f.stats.Delayed++
			f.count(func(m *faultMetrics) { m.delayed.Inc() })
			continue
		}
		if f.roll(f.cfg.DuplicateRate) {
			f.queue = append(f.queue, queuedEpoch{due: f.stats.Epochs, ep: f.cloneEpoch(ep)})
			f.stats.Duplicated++
			f.count(func(m *faultMetrics) { m.duplicated.Inc() })
		}
		f.stats.Emitted++
		return ep, nil
	}
}

// Recycle hands ep's row storage back to the injector, which backs a later
// emission with it. Call it once per emission of this injector, when nothing
// references ep.Rows anymore; skipping it is safe (the garbage collector
// reclaims the rows) but costs every later emission a fresh matrix. Each
// emission owns its storage, so recycling one never invalidates another
// (duplicates included).
func (f *FaultInjector) Recycle(ep FaultyEpoch) {
	if ep.mat != nil {
		f.free = append(f.free, ep.mat)
	}
}

// matrix returns an epoch-shaped matrix with every row view set, the last
// one recycled if there is one. Its contents are stale.
func (f *FaultInjector) matrix() *metrics.Matrix {
	n := len(f.free)
	if n == 0 {
		return metrics.NewMatrix(f.src.cfg.Machines, len(f.src.specs))
	}
	m := f.free[n-1]
	f.free = f.free[:n-1]
	m.ResetViews()
	return m
}

// cloneEpoch deep-copies an emission into a matrix of its own, preserving
// the dark-machine (nil row) pattern and any truncation.
func (f *FaultInjector) cloneEpoch(ep FaultyEpoch) FaultyEpoch {
	cp := ep
	if ep.mat == nil {
		return cp
	}
	cp.mat = f.matrix()
	views := cp.mat.RowViews()
	for m, row := range ep.Rows {
		if row == nil {
			cp.mat.MarkMissing(m)
			continue
		}
		cp.mat.CopyRow(m, row)
	}
	cp.Rows = views[:len(ep.Rows)]
	cp.Active = cloneInstance(ep.Active)
	return cp
}

// corruptRows deep-copies one epoch of rows into a matrix of its own and
// applies machine dropout and cell-level blanking/corruption. The returned
// rows are views into the matrix; the caller threads the matrix into the
// emission so Recycle can take it back.
func (f *FaultInjector) corruptRows(e int64, rows [][]float64) ([][]float64, *metrics.Matrix) {
	mat := f.matrix()
	out := mat.RowViews()
	cellFaults := f.cfg.BlankRate > 0 || f.cfg.CorruptRate > 0
	for m, row := range rows {
		// A machine only re-rolls dropout after at least one epoch back up
		// (e > downTo, not >=), so a dark stretch never silently chains past
		// DropoutMaxEpochs.
		if f.cfg.DropoutRate > 0 && (f.downTo[m] == 0 || e > f.downTo[m]) && f.rng.Float64() < f.cfg.DropoutRate {
			span := f.cfg.DropoutMinEpochs
			if f.cfg.DropoutMaxEpochs > span {
				span += f.rng.Intn(f.cfg.DropoutMaxEpochs - span + 1)
			}
			f.downTo[m] = e + int64(span)
		}
		if e < f.downTo[m] {
			f.stats.MachineDrops++
			f.count(func(t *faultMetrics) { t.machineDrops.Inc() })
			mat.MarkMissing(m)
			continue // out[m] is nil: machine is dark
		}
		cp := out[m]
		copy(cp, row)
		if cellFaults {
			for j := range cp {
				r := f.rng.Float64()
				switch {
				case r < f.cfg.BlankRate:
					cp[j] = math.NaN()
					f.stats.CellsBlanked++
					f.count(func(t *faultMetrics) { t.cellsBlanked.Inc() })
				case r < f.cfg.BlankRate+f.cfg.CorruptRate:
					switch f.rng.Intn(4) {
					case 0:
						cp[j] = math.NaN()
					case 1:
						cp[j] = math.Inf(1)
					case 2:
						cp[j] = math.Inf(-1)
					default:
						cp[j] *= f.cfg.SpikeFactor
					}
					f.stats.CellsCorrupt++
					f.count(func(t *faultMetrics) { t.cellsCorrupt.Inc() })
				}
			}
		}
	}
	return out, mat
}

func (f *FaultInjector) roll(p float64) bool {
	return p > 0 && f.rng.Float64() < p
}

func (f *FaultInjector) count(fn func(*faultMetrics)) {
	if f.tel != nil {
		fn(f.tel)
	}
}

func cloneInstance(in *crisis.Instance) *crisis.Instance {
	if in == nil {
		return nil
	}
	cp := *in
	return &cp
}
