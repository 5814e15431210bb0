package dcsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dcfp/internal/crisis"
	"dcfp/internal/metrics"
	"dcfp/internal/sla"
	"dcfp/internal/telemetry"
	"dcfp/internal/workload"
)

// StreamConfig sizes the open-ended epoch stream behind cmd/dcfpd. Unlike
// Config there is no fixed horizon: crises keep arriving with exponential
// inter-arrival gaps for as long as the caller keeps asking for epochs.
type StreamConfig struct {
	// Machines is the number of servers.
	Machines int
	// Seed makes the stream reproducible.
	Seed int64
	// WarmupEpochs is a crisis-free prefix so the consumer's hot/cold
	// threshold windows fill before the first fault lands.
	WarmupEpochs int
	// MeanGapEpochs is the mean of the exponential gap between the end of
	// one injected crisis and the start of the next.
	MeanGapEpochs float64
	// MinDuration/MaxDuration bound per-instance fault length in epochs.
	MinDuration, MaxDuration int
	// Types, when non-empty, restricts the crisis pool: each scheduled
	// instance draws uniformly from this list instead of the full catalog.
	// Repeating a type makes repeat crises (and thus known-crisis
	// identification) far more likely on short traces.
	Types []crisis.Type
	// Script, when non-empty, replaces random scheduling entirely: crises
	// land exactly at the scripted epochs, in order, and no further crises
	// arrive once the script is exhausted. Two streams built with the same
	// config (script included) generate byte-identical traces, which is what
	// lets a chaos run be compared against a clean reference.
	Script []ScriptedCrisis
	// Workload shapes the load signal.
	Workload workload.Config
	// Telemetry optionally receives the same dcfp_sim_* metrics Simulate
	// emits. For a stream, dcfp_sim_crisis_epochs_total counts epochs with
	// an injected fault active (ground truth), since SLA evaluation is the
	// consumer's job.
	Telemetry *telemetry.Registry
	// Events optionally receives sim.day and sim.crisis_injected events.
	Events *telemetry.EventLog
}

// DefaultStreamConfig returns a daemon-scale stream: paper-sized datacenter,
// two days of warmup, and a fresh crisis every ~2 days on average.
func DefaultStreamConfig(seed int64) StreamConfig {
	return StreamConfig{
		Machines:      100,
		Seed:          seed,
		WarmupEpochs:  2 * metrics.EpochsPerDay,
		MeanGapEpochs: float64(2 * metrics.EpochsPerDay),
		MinDuration:   8,
		MaxDuration:   16,
		Workload:      workload.DefaultConfig(),
	}
}

// ScriptedCrisis pins one crisis of a stream script: Type starting at Start
// for Duration epochs. Severity 0 draws from the usual 0.9..1.1 band.
type ScriptedCrisis struct {
	Start    metrics.Epoch
	Duration int
	Type     crisis.Type
	Severity float64
}

// End is the last epoch the scripted crisis is active.
func (sc ScriptedCrisis) End() metrics.Epoch {
	return sc.Start + metrics.Epoch(sc.Duration) - 1
}

func (c StreamConfig) validate() error {
	if c.Machines < 10 {
		return fmt.Errorf("dcsim: need at least 10 machines, got %d", c.Machines)
	}
	if c.WarmupEpochs < 0 {
		return fmt.Errorf("dcsim: negative warmup %d", c.WarmupEpochs)
	}
	if c.MeanGapEpochs <= 0 {
		return fmt.Errorf("dcsim: mean crisis gap %v must be positive", c.MeanGapEpochs)
	}
	if c.MinDuration < 1 || c.MaxDuration < c.MinDuration {
		return fmt.Errorf("dcsim: bad duration bounds [%d,%d]", c.MinDuration, c.MaxDuration)
	}
	for _, ty := range c.Types {
		if int(ty) < 0 || int(ty) >= crisis.NumTypes {
			return fmt.Errorf("dcsim: unknown crisis type %d in Types", ty)
		}
	}
	prevEnd := metrics.Epoch(c.WarmupEpochs) - 1
	for i, sc := range c.Script {
		if int(sc.Type) < 0 || int(sc.Type) >= crisis.NumTypes {
			return fmt.Errorf("dcsim: unknown crisis type %d in Script[%d]", sc.Type, i)
		}
		if sc.Duration < 1 {
			return fmt.Errorf("dcsim: Script[%d] duration %d must be >= 1", i, sc.Duration)
		}
		if sc.Severity != 0 && (sc.Severity < 0.5 || sc.Severity > 1.5) {
			return fmt.Errorf("dcsim: Script[%d] severity %v outside [0.5, 1.5]", i, sc.Severity)
		}
		// Scripted crises must be strictly ordered and non-overlapping (and
		// the first must clear the warmup prefix): the stream schedules the
		// next instance only after the previous one ends.
		if sc.Start <= prevEnd {
			return fmt.Errorf("dcsim: Script[%d] starts at %d, inside or before the previous crisis/warmup (ends %d)", i, sc.Start, prevEnd)
		}
		prevEnd = sc.End()
	}
	return nil
}

// streamChaosPad is how many epochs before a streamed crisis its side-effect
// chaos begins (mirrors Simulate's FSPad window; the trailing pad is dropped
// because the next instance is scheduled as soon as the previous one ends).
const streamChaosPad = 8

// Stream generates datacenter epochs one at a time, forever. It reuses the
// machinery of Simulate — same catalog, SLAs, crisis profiles, workload and
// noise model — but schedules crises on the fly instead of up front.
//
// A Stream is not safe for concurrent use; cmd/dcfpd drives it from a single
// goroutine.
type Stream struct {
	cfg          StreamConfig
	cat          *metrics.Catalog
	sla          sla.Config
	specs        []metricSpec
	profiles     map[crisis.Type]compiledProfile
	rng          *rand.Rand
	wl           *workload.Generator
	mf           [][]float64 // per-machine hardware spread
	shared       []float64   // datacenter-wide AR(1) drift
	ef           epochFactors
	bufs         [2]*metrics.Matrix // double buffer: the last Next's rows, and the next's
	e            metrics.Epoch
	next         *crisis.Instance // upcoming or currently active instance
	scriptPos    int              // next unconsumed entry of cfg.Script
	chaos        []compiledEffect // side-effect chaos drawn for next
	seq          int
	tel          *simMetrics
	crisisEpochs int // cumulative, for sim.day events
	injected     int
}

// NewStream builds a stream; the first crisis lands after WarmupEpochs plus
// one exponential gap.
func NewStream(cfg StreamConfig) (*Stream, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cat := StandardCatalog()
	slaCfg, err := StandardSLA(cat)
	if err != nil {
		return nil, err
	}
	profiles, err := compileProfiles(cat)
	if err != nil {
		return nil, err
	}
	wl, err := workload.New(cfg.Workload, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	s := &Stream{
		cfg:      cfg,
		cat:      cat,
		sla:      slaCfg,
		specs:    allSpecs(),
		profiles: profiles,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		wl:       wl,
		tel:      newSimMetrics(cfg.Telemetry),
	}
	s.mf = make([][]float64, cfg.Machines)
	for m := range s.mf {
		row := make([]float64, len(s.specs))
		for j, sp := range s.specs {
			f := 1 + s.rng.NormFloat64()*sp.machineSpread
			if f < 0.5 {
				f = 0.5
			}
			row[j] = f
		}
		s.mf[m] = row
	}
	s.shared = make([]float64, len(s.specs))
	s.ef = newEpochFactors(len(s.specs), profiles)
	for i := range s.bufs {
		s.bufs[i] = metrics.NewMatrix(cfg.Machines, len(s.specs))
	}
	if err := s.schedule(metrics.Epoch(cfg.WarmupEpochs)); err != nil {
		return nil, err
	}
	return s, nil
}

// Catalog returns the metric catalog the stream emits rows under.
func (s *Stream) Catalog() *metrics.Catalog { return s.cat }

// SLA returns the standard SLA configuration for the catalog.
func (s *Stream) SLA() sla.Config { return s.sla }

// Epoch returns the index the next call to Next will generate.
func (s *Stream) Epoch() metrics.Epoch { return s.e }

// scriptExhausted is the sentinel start epoch installed once a scripted
// stream has consumed its last entry: far enough out that no realistic run
// reaches it, small enough that End() cannot overflow.
const scriptExhausted = metrics.Epoch(math.MaxInt32)

// schedule places the next crisis instance no earlier than notBefore — at
// the next scripted epoch when the stream is scripted, with an exponential
// gap otherwise — and draws its chaos side effects.
func (s *Stream) schedule(notBefore metrics.Epoch) error {
	if len(s.cfg.Script) > 0 {
		return s.scheduleScripted(notBefore)
	}
	gap := metrics.Epoch(1 + int(s.rng.ExpFloat64()*s.cfg.MeanGapEpochs))
	start := notBefore + gap
	ty := crisis.UnlabeledTypes(1, s.rng)[0]
	if len(s.cfg.Types) > 0 {
		ty = s.cfg.Types[s.rng.Intn(len(s.cfg.Types))]
	}
	win := crisis.ScheduleConfig{
		PeriodStart:   start,
		PeriodEnd:     start + metrics.Epoch(s.cfg.MaxDuration),
		MinSeparation: 0,
		MinDuration:   s.cfg.MinDuration,
		MaxDuration:   s.cfg.MaxDuration,
	}
	ins, err := crisis.Schedule([]crisis.Type{ty}, win, true, "S", s.rng)
	if err != nil {
		return fmt.Errorf("dcsim: scheduling streamed crisis: %w", err)
	}
	return s.place(ins[0])
}

// scheduleScripted consumes the next script entry, or parks a far-future
// sentinel when the script is spent so the stream keeps generating clean
// epochs without rescheduling.
func (s *Stream) scheduleScripted(notBefore metrics.Epoch) error {
	if s.scriptPos >= len(s.cfg.Script) {
		s.chaos = s.chaos[:0]
		s.next = &crisis.Instance{ID: "S-END", Start: scriptExhausted, Duration: 1}
		return nil
	}
	sc := s.cfg.Script[s.scriptPos]
	s.scriptPos++
	if sc.Start < notBefore {
		return fmt.Errorf("dcsim: scripted crisis at %d already passed (stream at %d)", sc.Start, notBefore)
	}
	in, err := crisis.ScheduleAt(sc.Type, sc.Start, sc.Duration, sc.Severity, true, "S", s.rng)
	if err != nil {
		return fmt.Errorf("dcsim: scheduling scripted crisis: %w", err)
	}
	return s.place(in)
}

// place installs in as the stream's next instance: numbers it, arms the
// TypeJ workload spike, and draws its side-effect chaos.
func (s *Stream) place(in crisis.Instance) error {
	s.seq++
	in.ID = fmt.Sprintf("S%03d", s.seq)
	if in.Type == crisis.TypeJ {
		if err := s.wl.AddSpike(workload.Spike{Start: in.Start, Duration: in.Duration, Magnitude: 1.6}); err != nil {
			return err
		}
	}
	s.chaos = s.chaos[:0]
	fillerStart := s.cat.Len() - NumFillerMetrics
	for m := fillerStart; m < s.cat.Len(); m++ {
		if s.rng.Float64() < 0.25 {
			f := 2.2
			if s.rng.Float64() < 0.5 {
				f = 1 / f
			}
			s.chaos = append(s.chaos, compiledEffect{metric: m, factor: f})
		}
	}
	s.next = &in
	s.injected++
	recordSchedule(s.tel, s.cfg.Events, []crisis.Instance{in})
	return nil
}

// Next generates one epoch of per-machine rows and returns them together
// with the injected crisis instance active at that epoch (nil outside
// crises). The returned rows are views into one of the stream's two
// buffers, which the following successful call overwrites — consumers that
// retain rows must copy them (monitor.ObserveEpoch already does).
func (s *Stream) Next() ([][]float64, *crisis.Instance, error) {
	return s.NextContext(context.Background())
}

// checkCancelEvery is how many machine rows NextContext generates between
// context checks: frequent enough that a 2000-machine epoch aborts promptly,
// rare enough to stay off the per-row hot path.
const checkCancelEvery = 64

// NextContext is Next with cancellation: the context is checked before any
// state advances, once the epoch's factors are drawn, and again every
// checkCancelEvery machine rows. The epoch is generated into the spare
// buffer, so a failed call leaves the last rows intact. A cancelled call
// returns ctx.Err() with the epoch only partially generated — the stream's
// RNG and workload state have advanced, so the stream must not be reused for
// a deterministic continuation afterwards (tear it down; this is shutdown
// support, not pause/resume).
func (s *Stream) NextContext(ctx context.Context) ([][]float64, *crisis.Instance, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var t0 time.Time
	if s.tel != nil {
		t0 = time.Now()
	}
	e := s.e
	s.e++
	_, intensity := s.wl.Next()

	for j, sp := range s.specs {
		s.shared[j] = sp.sharedAR*s.shared[j] + s.rng.NormFloat64()*sp.sharedStd
	}
	s.ef.set(s.specs, intensity, s.shared)

	buf := s.bufs[1]
	buf.ResetViews()
	rows := buf.RowViews()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	if e > s.next.End() {
		if err := s.schedule(e); err != nil {
			return nil, nil, err
		}
	}
	var active *crisis.Instance
	if e >= s.next.Start && e <= s.next.End() {
		active = s.next
	}

	for m := 0; m < s.cfg.Machines; m++ {
		if m != 0 && m%checkCancelEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		s.ef.row(rows[m], s.mf[m], s.specs, s.rng)
	}
	if active != nil {
		applyCrisis(rows, active, s.profiles[active.Type], e, s.cfg.Machines, s.ef.spill)
	}
	if e >= s.next.Start-streamChaosPad && e <= s.next.End() {
		for _, eff := range s.chaos {
			f := math.Pow(eff.factor, s.next.Severity)
			for m := 0; m < s.cfg.Machines; m++ {
				rows[m][eff.metric] *= f
			}
		}
	}

	if active != nil {
		s.crisisEpochs++
		if s.tel != nil {
			s.tel.crisisEpochs.Inc()
		}
	}
	if s.tel != nil {
		s.tel.epochs.Inc()
		s.tel.epochGen.ObserveSince(t0)
	}
	if s.cfg.Events.Enabled() && (int(e)+1)%metrics.EpochsPerDay == 0 {
		s.cfg.Events.SimDay((int(e)+1)/metrics.EpochsPerDay, int64(e), s.crisisEpochs, s.injected)
	}
	// The buffers swap only now that this call has succeeded: the consumer
	// contract is that rows stay valid until the next successful Next.
	s.bufs[0], s.bufs[1] = buf, s.bufs[0]
	return rows, active, nil
}
