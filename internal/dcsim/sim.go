package dcsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"dcfp/internal/crisis"
	"dcfp/internal/metrics"
	"dcfp/internal/quantile"
	"dcfp/internal/sla"
	"dcfp/internal/telemetry"
	"dcfp/internal/workload"
)

// Config sizes the simulated datacenter and trace.
type Config struct {
	// Machines is the number of servers (the paper's datacenter runs
	// hundreds).
	Machines int
	// Seed makes the whole trace reproducible.
	Seed int64
	// BackgroundDays of crisis-free history precede everything, feeding
	// the hot/cold threshold windows.
	BackgroundDays int
	// UnlabeledDays hold the 20 undiagnosed crises ("Sep–Dec 2007").
	UnlabeledDays int
	// LabeledDays hold the 19 diagnosed crises of Table 1 ("Jan–Apr 2008").
	LabeledDays int
	// UnlabeledCrises is the number of crises in the unlabeled period.
	UnlabeledCrises int
	// Workload shapes the load signal.
	Workload workload.Config
	// FSMachines is how many machines' raw rows are retained per
	// feature-selection epoch (a deterministic subset; keeping every
	// machine's row for every epoch would be needless bulk).
	FSMachines int
	// FSPad is how many epochs before/after each crisis keep raw
	// per-machine rows, supplying the crisis/normal samples for §3.4's
	// feature selection.
	FSPad int
	// Workers bounds the goroutines generating epochs. Epoch noise comes
	// from independent per-epoch RNG streams derived from (Seed, epoch),
	// so any worker count produces a byte-identical Trace. 0 resolves to
	// GOMAXPROCS; 1 forces the serial reference path. Runtime-only; not
	// persisted with saved traces.
	Workers int
	// Telemetry optionally receives simulator metrics: epoch-generation
	// timing and injected-crisis counters. Runtime-only; not persisted
	// with saved traces.
	Telemetry *telemetry.Registry
	// Events optionally receives sim.day progress events (one per
	// simulated day) and sim.crisis_injected schedule events.
	Events *telemetry.EventLog
}

// DefaultConfig returns a paper-scale configuration: 100 machines, 120 days
// of background plus two 120-day crisis periods.
func DefaultConfig(seed int64) Config {
	return Config{
		Machines:        100,
		Seed:            seed,
		BackgroundDays:  120,
		UnlabeledDays:   120,
		LabeledDays:     120,
		UnlabeledCrises: 20,
		Workload:        workload.DefaultConfig(),
		FSMachines:      40,
		FSPad:           8,
	}
}

// SmallConfig returns a fast configuration for tests and examples: fewer
// machines and days, fewer unlabeled crises.
func SmallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Machines = 30
	cfg.BackgroundDays = 20
	cfg.UnlabeledDays = 30
	cfg.LabeledDays = 60
	cfg.UnlabeledCrises = 5
	cfg.FSMachines = 20
	return cfg
}

func (c Config) validate() error {
	if c.Machines < 10 {
		return fmt.Errorf("dcsim: need at least 10 machines, got %d", c.Machines)
	}
	if c.BackgroundDays < 1 || c.UnlabeledDays < 1 || c.LabeledDays < 1 {
		return errors.New("dcsim: all periods need at least one day")
	}
	if c.UnlabeledCrises < 0 {
		return errors.New("dcsim: negative unlabeled crisis count")
	}
	if c.FSMachines < 5 || c.FSMachines > c.Machines {
		return fmt.Errorf("dcsim: FSMachines %d out of [5, Machines]", c.FSMachines)
	}
	if c.FSPad < 1 {
		return errors.New("dcsim: FSPad must be at least 1")
	}
	return nil
}

// FSEpoch holds the raw per-machine data retained for one epoch: the sample
// rows of the FS machine subset and, per retained machine, whether it was
// violating any KPI SLA — the (X_{m,t}, Y_{m,t}) pairs of §3.4.
type FSEpoch struct {
	X         [][]float64
	Violating []bool
}

// newFSEpoch allocates an FSEpoch whose n rows are views into one contiguous
// block — same columnar layout as metrics.Matrix, one allocation per retained
// epoch, while keeping the gob-encoded [][]float64 shape stable.
func newFSEpoch(n, cols int) *FSEpoch {
	flat := make([]float64, n*cols)
	fse := &FSEpoch{
		X:         make([][]float64, n),
		Violating: make([]bool, n),
	}
	for i := range fse.X {
		fse.X[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return fse
}

// Trace is a fully simulated history of the datacenter.
type Trace struct {
	Config  Config
	Catalog *metrics.Catalog
	SLA     sla.Config
	// Track stores the cross-machine quantiles of every metric for every
	// epoch — the raw quantile values the fingerprint store keeps (§6.3).
	Track *metrics.QuantileTrack
	// Status is the SLA evaluation per epoch.
	Status []sla.EpochStatus
	// InCrisis[e] reports the 10%-rule crisis state of epoch e.
	InCrisis []bool
	// Episodes are the *detected* crisis episodes (from InCrisis).
	Episodes []sla.Episode
	// Instances is the injected ground truth, sorted by start epoch.
	Instances []crisis.Instance
	// UnlabeledStart and LabeledStart are the period boundaries.
	UnlabeledStart, LabeledStart metrics.Epoch

	fs map[metrics.Epoch]*FSEpoch
}

// NumEpochs reports the trace length.
func (t *Trace) NumEpochs() int { return len(t.Status) }

// simMetrics holds the simulator's pre-registered metric handles; nil when
// no registry is attached (no clock reads happen then).
type simMetrics struct {
	epochGen     *telemetry.Histogram
	epochs       *telemetry.Counter
	crisisEpochs *telemetry.Counter
	injected     map[crisis.Type]*telemetry.Counter
}

func newSimMetrics(r *telemetry.Registry) *simMetrics {
	if r == nil {
		return nil
	}
	m := &simMetrics{
		epochGen: r.Histogram("dcfp_sim_epoch_gen_seconds",
			"Wall time to generate one simulated epoch (rows, crisis effects, aggregation, SLA).",
			telemetry.TimeBuckets()),
		epochs: r.Counter("dcfp_sim_epochs_total",
			"Simulated epochs generated."),
		crisisEpochs: r.Counter("dcfp_sim_crisis_epochs_total",
			"Simulated epochs whose SLA state was in crisis."),
		injected: make(map[crisis.Type]*telemetry.Counter, crisis.NumTypes),
	}
	for t := crisis.Type(0); int(t) < crisis.NumTypes; t++ {
		m.injected[t] = r.Counter("dcfp_sim_crises_injected_total",
			"Ground-truth crisis instances injected, by Table 1 type.",
			telemetry.Label{Key: "type", Value: t.String()})
	}
	return m
}

// recordSchedule feeds the final crisis schedule into counters and events.
func recordSchedule(tel *simMetrics, events *telemetry.EventLog, instances []crisis.Instance) {
	for _, in := range instances {
		if tel != nil {
			tel.injected[in.Type].Inc()
		}
		events.CrisisInjected(in.ID, in.Type.String(), int64(in.Start), in.Duration)
	}
}

// Simulate generates a complete trace under cfg.
func Simulate(cfg Config) (*Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tel := newSimMetrics(cfg.Telemetry)
	rng := rand.New(rand.NewSource(cfg.Seed))

	cat := StandardCatalog()
	specs := allSpecs()
	slaCfg, err := StandardSLA(cat)
	if err != nil {
		return nil, err
	}
	if err := slaCfg.Validate(cat.Len()); err != nil {
		return nil, err
	}
	profiles, err := compileProfiles(cat)
	if err != nil {
		return nil, err
	}

	epd := metrics.EpochsPerDay
	unlabeledStart := metrics.Epoch(cfg.BackgroundDays * epd)
	labeledStart := unlabeledStart + metrics.Epoch(cfg.UnlabeledDays*epd)
	end := labeledStart + metrics.Epoch(cfg.LabeledDays*epd) - 1
	numEpochs := int(end) + 1

	// Schedule crises: unlabeled first, then the Table 1 set.
	var instances []crisis.Instance
	if cfg.UnlabeledCrises > 0 {
		ucfg := crisis.DefaultScheduleConfig(unlabeledStart+metrics.Epoch(epd), labeledStart-metrics.Epoch(epd))
		uns, err := crisis.Schedule(crisis.UnlabeledTypes(cfg.UnlabeledCrises, rng), ucfg, false, "U", rng)
		if err != nil {
			return nil, fmt.Errorf("dcsim: scheduling unlabeled crises: %w", err)
		}
		instances = append(instances, uns...)
	}
	lcfg := crisis.DefaultScheduleConfig(labeledStart+metrics.Epoch(epd), end-metrics.Epoch(epd))
	labeled, err := crisis.Schedule(crisis.Table1Types(), lcfg, true, "L", rng)
	if err != nil {
		return nil, fmt.Errorf("dcsim: scheduling labeled crises: %w", err)
	}
	instances = append(instances, labeled...)
	recordSchedule(tel, cfg.Events, instances)

	// Workload: attach a genuine load spike to every type-J crisis, so a
	// workload spike propagates through every load-coupled metric.
	wl, err := workload.New(cfg.Workload, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	for _, in := range instances {
		if in.Type == crisis.TypeJ {
			if err := wl.AddSpike(workload.Spike{Start: in.Start, Duration: in.Duration, Magnitude: 1.6}); err != nil {
				return nil, err
			}
		}
	}

	// Crisis side-effect chaos: around any crisis, miscellaneous
	// application counters wobble datacenter-wide in ways specific to the
	// *instance*, not the crisis class — operators see this in practice
	// as "everything looks weird around an outage". The wobble hits every
	// machine equally and spans a window wider than the fault itself, so
	// it carries no per-machine SLA signal (feature selection rejects
	// it), but it contaminates methods that keep all metrics in the
	// fingerprint.
	fillerStart := cat.Len() - NumFillerMetrics
	chaos := make(map[string][]compiledEffect, len(instances))
	for _, in := range instances {
		var effs []compiledEffect
		for m := fillerStart; m < cat.Len(); m++ {
			if rng.Float64() < 0.25 {
				f := 2.2
				if rng.Float64() < 0.5 {
					f = 1 / f
				}
				effs = append(effs, compiledEffect{metric: m, factor: f})
			}
		}
		chaos[in.ID] = effs
	}

	// Per-machine hardware spread factors.
	mf := make([][]float64, cfg.Machines)
	for m := range mf {
		row := make([]float64, len(specs))
		for j, sp := range specs {
			f := 1 + rng.NormFloat64()*sp.machineSpread
			if f < 0.5 {
				f = 0.5
			}
			row[j] = f
		}
		mf[m] = row
	}

	// The serial RNG work ends here. Workload intensity and the
	// datacenter-wide AR(1) drift are both serially-dependent series, so
	// they are rolled forward once, up front; per-machine noise inside an
	// epoch comes from an independent RNG stream derived from
	// (Seed, epoch), which is what lets epochs generate in any order — and
	// hence in parallel — while staying byte-identical to the serial run.
	intensity := make([]float64, numEpochs)
	for e := range intensity {
		_, intensity[e] = wl.Next()
	}
	sharedSeries := make([]float64, numEpochs*len(specs))
	shared := make([]float64, len(specs))
	for e := 0; e < numEpochs; e++ {
		for j, sp := range specs {
			shared[j] = sp.sharedAR*shared[j] + rng.NormFloat64()*sp.sharedStd
		}
		copy(sharedSeries[e*len(specs):(e+1)*len(specs)], shared)
	}

	// Per-epoch crisis and chaos lookups, resolved once so workers index
	// instead of scanning. Instances are sorted and non-overlapping within
	// each period; chaos spans [start-FSPad, end+FSPad] of the nearest
	// instance at a constant level (instances are separated by far more
	// than two pads, so at most one window covers any epoch).
	activeAt := make([]int32, numEpochs) // instance index, -1 = none
	chaosAt := make([]int32, numEpochs)  // chaos window's instance, -1 = none
	for e := range activeAt {
		activeAt[e], chaosAt[e] = -1, -1
	}
	for i, in := range instances {
		for e := in.Start; e <= in.End(); e++ {
			if e >= 0 && int(e) < numEpochs {
				activeAt[e] = int32(i)
			}
		}
		for e := in.Start - metrics.Epoch(cfg.FSPad); e <= in.End()+metrics.Epoch(cfg.FSPad); e++ {
			if e >= 0 && int(e) < numEpochs && chaosAt[e] == -1 {
				chaosAt[e] = int32(i)
			}
		}
	}

	// fsKeep marks epochs whose raw rows must be retained; it coincides
	// with the chaos windows.
	fsKeep := make([]bool, numEpochs)
	for e := range fsKeep {
		fsKeep[e] = chaosAt[e] >= 0
	}

	track, err := metrics.NewQuantileTrack(cat.Len())
	if err != nil {
		return nil, err
	}
	if err := track.Grow(numEpochs); err != nil {
		return nil, err
	}

	tr := &Trace{
		Config:         cfg,
		Catalog:        cat,
		SLA:            slaCfg,
		Track:          track,
		Status:         make([]sla.EpochStatus, numEpochs),
		InCrisis:       make([]bool, numEpochs),
		Instances:      instances,
		UnlabeledStart: unlabeledStart,
		LabeledStart:   labeledStart,
		fs:             make(map[metrics.Epoch]*FSEpoch),
	}
	fsOut := make([]*FSEpoch, numEpochs)

	// genRange generates epochs [lo, hi) with worker-private scratch
	// (aggregator, row matrix, summary buffer, masks), writing results into
	// the disjoint per-epoch slots of track/Status/InCrisis/fsOut.
	genRange := func(lo, hi int) error {
		agg, err := metrics.NewAggregator(cat.Len(), func() quantile.Estimator { return quantile.NewExact() })
		if err != nil {
			return err
		}
		mat := metrics.NewMatrix(cfg.Machines, len(specs))
		rows := mat.RowViews()
		ef := newEpochFactors(len(specs), profiles)
		summary := make([][3]float64, cat.Len())
		reporting := make([]bool, cfg.Machines)
		viol := make([]bool, cfg.Machines)
		for e := lo; e < hi; e++ {
			var t0 time.Time
			if tel != nil {
				t0 = time.Now()
			}
			erng := rand.New(rand.NewSource(epochSeed(cfg.Seed, int64(e))))

			// Generate machine rows.
			ef.set(specs, intensity[e], sharedSeries[e*len(specs):(e+1)*len(specs)])
			for m := 0; m < cfg.Machines; m++ {
				ef.row(rows[m], mf[m], specs, erng)
			}
			if ai := activeAt[e]; ai >= 0 {
				in := &instances[ai]
				applyCrisis(rows, in, profiles[in.Type], metrics.Epoch(e), cfg.Machines, ef.spill)
			}
			if ci := chaosAt[e]; ci >= 0 {
				in := instances[ci]
				for _, eff := range chaos[in.ID] {
					f := math.Pow(eff.factor, in.Severity)
					for m := 0; m < cfg.Machines; m++ {
						rows[m][eff.metric] *= f
					}
				}
			}

			// Aggregate quantiles and evaluate SLAs through the monitor's
			// ingest path. A simulated epoch is complete, so a dropped
			// cell or a metric without data is a generator bug, not a gap
			// to carry over.
			dropped, err := agg.ObserveBatchFiltered(0, rows, reporting)
			if err != nil {
				return err
			}
			gaps, err := agg.SummarizeInto(1, summary, nil)
			if err != nil {
				return err
			}
			if dropped > 0 || gaps > 0 {
				return fmt.Errorf("dcsim: epoch %d: %d non-finite cells, %d metrics without data", e, dropped, gaps)
			}
			if err := track.SetEpoch(metrics.Epoch(e), summary); err != nil {
				return err
			}
			status, err := slaCfg.EvaluateMasked(rows, viol, reporting)
			if err != nil {
				return err
			}
			tr.Status[e] = status
			tr.InCrisis[e] = status.InCrisis

			// Retain raw rows for feature selection, spreading the
			// retained subset evenly across the whole machine range so
			// any contiguous affected window overlaps it.
			if fsKeep[e] {
				fse := newFSEpoch(cfg.FSMachines, len(specs))
				for i := 0; i < cfg.FSMachines; i++ {
					m := i * cfg.Machines / cfg.FSMachines
					copy(fse.X[i], rows[m])
					fse.Violating[i] = viol[m]
				}
				fsOut[e] = fse
			}

			if tel != nil {
				if status.InCrisis {
					tel.crisisEpochs.Inc()
				}
				tel.epochs.Inc()
				tel.epochGen.ObserveSince(t0)
			}
		}
		return nil
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numEpochs {
		workers = numEpochs
	}
	if workers <= 1 {
		if err := genRange(0, numEpochs); err != nil {
			return nil, err
		}
	} else {
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*numEpochs/workers, (w+1)*numEpochs/workers
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				errs[w] = genRange(lo, hi)
			}(w, lo, hi)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	for e, fse := range fsOut {
		if fse != nil {
			tr.fs[metrics.Epoch(e)] = fse
		}
	}

	// Progress events are emitted in day order after generation (workers
	// finish epochs out of order; the event content is identical).
	if cfg.Events.Enabled() {
		crisisEpochs, injIdx := 0, 0
		for e := 0; e < numEpochs; e++ {
			if tr.InCrisis[e] {
				crisisEpochs++
			}
			if (e+1)%epd == 0 {
				for injIdx < len(instances) && instances[injIdx].Start <= metrics.Epoch(e) {
					injIdx++
				}
				cfg.Events.SimDay((e+1)/epd, int64(e), crisisEpochs, injIdx)
			}
		}
	}

	// Detect episodes: merge one-epoch dips, require at least 2 epochs.
	tr.Episodes = sla.Episodes(tr.InCrisis, 1, 2)
	return tr, nil
}

// epochSeed derives epoch e's private RNG seed from the trace seed with a
// splitmix64-style mix, so every epoch owns a statistically independent
// noise stream no matter which goroutine generates it.
func epochSeed(seed, e int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + (uint64(e)+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// epochFactors holds what every cell of one epoch shares, computed once per
// epoch instead of once per cell: scale[j] = base·intensity^loadExp and
// sh[j] = 1+shared[j] per metric, and applyCrisis's spillover factor per
// crisis effect. A cell is then ((scale·mf)·sh)·(1+noise), metricSpec's
// product in its left-to-right order, so every intermediate result is the
// one the unhoisted expression rounds to: the product order is a contract
// (DESIGN.md, "Generation's per-cell product is a contract").
type epochFactors struct {
	scale, sh, spill []float64
}

// newEpochFactors carves the scratch for nspecs metrics and the longest
// effect list of profiles from one allocation.
func newEpochFactors(nspecs int, profiles map[crisis.Type]compiledProfile) epochFactors {
	effs := 0
	for _, p := range profiles {
		effs = max(effs, len(p.effects), len(p.lateEffects))
	}
	slab := make([]float64, 2*nspecs+effs)
	return epochFactors{
		scale: slab[:nspecs:nspecs],
		sh:    slab[nspecs : 2*nspecs : 2*nspecs],
		spill: slab[2*nspecs:],
	}
}

// set computes the per-metric factors of an epoch at workload intensity
// with datacenter-wide drift shared.
func (f *epochFactors) set(specs []metricSpec, intensity float64, shared []float64) {
	for j := range specs {
		f.scale[j] = specs[j].base * math.Pow(intensity, specs[j].loadExp)
		f.sh[j] = 1 + shared[j]
	}
}

// row fills one machine's baseline row from its hardware spread mf, drawing
// one noise value per cell from rng in metric order. Negative values clamp
// to zero.
func (f *epochFactors) row(row, mf []float64, specs []metricSpec, rng *rand.Rand) {
	scale, sh, mf, specs := f.scale[:len(row)], f.sh[:len(row)], mf[:len(row)], specs[:len(row)]
	for j := range row {
		v := scale[j] * mf[j] * sh[j] * (1 + rng.NormFloat64()*specs[j].noiseStd)
		if v < 0 {
			v = 0
		}
		row[j] = v
	}
}

// applyCrisis multiplies crisis effects into the affected machines' rows.
// spill is scratch for one factor per effect.
func applyCrisis(rows [][]float64, in *crisis.Instance, p compiledProfile, e metrics.Epoch, machines int, spill []float64) {
	// Ramp-in envelope: faults build up over four epochs (one hour), so
	// the SLA rule fires a few epochs into the fault — by which time the
	// fingerprint's pre-detection window epochs already show the crisis
	// pattern, exactly the gradual onset the paper's production crises
	// exhibit (its Figure 7: summary ranges starting 30 minutes before
	// detection discriminate well). The ramp length is constant so
	// instances of one class present the same early shape regardless of
	// how long they last.
	const rampLen = 4
	env := float64(int(e-in.Start)+1) / float64(rampLen)
	if env > 1 {
		env = 1
	}
	exp := env * in.Severity

	effects := p.effects
	if len(p.lateEffects) > 0 && int(e-in.Start) >= in.Duration/2 {
		effects = p.lateEffects
	}

	affected := int(math.Ceil(in.AffectedFraction * float64(machines)))
	if affected > machines {
		affected = machines
	}
	// Deterministic affected subset, rotated per instance so different
	// instances hit different machines.
	offset := int(in.Start) % machines
	// Every unaffected machine takes the same spillover factor per effect.
	spill = spill[:len(effects)]
	for k, eff := range effects {
		spill[k] = math.Pow(eff.factor, exp*spilloverExp)
	}
	for m := 0; m < machines; m++ {
		row := rows[m]
		if (m-offset+machines)%machines >= affected {
			for k, eff := range effects {
				row[eff.metric] *= spill[k]
			}
			continue
		}
		for _, eff := range effects {
			// Machines do not respond identically: each (machine,
			// metric, instance) triple gets a stable response jitter in
			// [0.7, 1.3], so no single metric perfectly predicts which
			// machines violate and feature selection has to keep
			// several of a crisis's metrics.
			row[eff.metric] *= math.Pow(eff.factor, exp*responseJitter(m, eff.metric, int(in.Start)))
		}
	}
}

// spilloverExp attenuates crisis effects on machines outside the affected
// set: the stages share infrastructure (databases, the archival link, load
// balancers), so a fault degrades everyone a little and the affected
// fraction a lot. The attenuation is strong enough that spillover alone
// never violates a KPI SLA (detection counts stay fraction-driven) yet the
// resulting ~1.4-2x shifts push every cross-machine quantile of a profile
// metric past the 2/98 hot/cold thresholds consistently — instances of one
// crisis type light up the same fingerprint cells.
const spilloverExp = 0.35

// responseJitter returns a deterministic pseudo-random factor in [0.7, 1.3].
func responseJitter(machine, metric, salt int) float64 {
	h := uint32(machine*2654435761) ^ uint32(metric*40503) ^ uint32(salt*97)
	h ^= h >> 13
	h *= 2246822519
	h ^= h >> 16
	return 0.7 + 0.6*float64(h%1000)/999
}
