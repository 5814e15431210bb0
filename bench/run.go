package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"dcfp/internal/ident"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
)

// options are the command line of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	epochs   int // > 0: measure this many epochs instead of for seconds
	trace    bool
	machines int // > 0: override the workload's machine count
	outDir   string
	timeline string
}

// setups is how many times a run builds and warms the pipeline; setup_s is
// their median and the last one is measured.
const setups = 3

// minEpochs is the fewest epochs a measured phase offers, however short its
// budget. A scripted run for a time offers at least two rotations of the
// crisis types, the second being the first with recurrences to identify.
const minEpochs = 32

// verifyEpochs is how far past warm-up the fleet's report stream is checked
// against a single-node monitor fed the same seed.
const verifyEpochs = 100

// kind classifies a timed epoch by what the monitor did on it.
type kind int

const (
	kindSteady kind = iota
	kindRefresh
	kindDetect
	kindIdentify
	kindCrisisTail
	kindCrisisEnd
	kindBuffered    // reorder window is holding the epoch for its predecessors
	kindDropped     // reorder window dropped it: a duplicate or a straggler
	kindMultiReport // the epoch unblocked buffered successors
	numKinds
)

var kindNames = [numKinds]string{"steady", "refresh", "detect", "identify", "crisis_tail", "crisis_end", "buffered", "dropped", "multi_report"}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timedEpoch is one offered epoch of a measured phase.
type timedEpoch struct {
	epoch      metrics.Epoch
	kind       kind
	latMS      float64
	frameBytes int
	skewMS     float64
	heapMB     float64
}

// session is one built-and-warmed pipeline and everything observed on it.
type session struct {
	opt  options
	spec spec
	p    *pipeline
	tr   *tracer
	rp   *replayer

	lead       []timedEpoch // traced run only: the untraced lead-in
	epochs     []timedEpoch // the measured phase
	frameSizes []float64    // fleet: every frame shipped in either
	fed        int          // epochs offered since construction, warm-up included

	attempted, failed int
	problems

	// Report stream.
	reports     int
	chain       [sha256.Size]byte
	verifyChain [sha256.Size]byte // chain after verifyN reports, the stretch verifySingleNode redoes
	verifyN     int
	checkpoints []string
	nextMark    int
	wasActive   bool
	truth       string
	lastAdvice  string
	detected    int
	closed      int
	advices     int
	recurrences int
	identified  int

	// Dirty workload: source epochs the reorder window accepted and may
	// still hold.
	seen map[metrics.Epoch]bool

	// Traced phase: what the timed calls allocated and collected.
	allocBytes, pauseNS, heapEnd uint64
	gcCycles                     uint32
}

// newSession builds the workload's pipeline and feeds warm-up epochs until
// the monitor has thresholds; its duration is one setup_s sample.
func newSession(opt options, sp spec, tr *tracer) (*session, error) {
	p, err := newPipeline(sp, opt.seed)
	if err != nil {
		return nil, err
	}
	s := &session{opt: opt, spec: sp, p: p, tr: tr, nextMark: 100, seen: map[metrics.Epoch]bool{}}
	for ready := false; !ready; {
		if err := s.step(nil); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if s.failed > 0 {
			s.close()
			return nil, fmt.Errorf("warm-up epoch failed: %v", s.failures)
		}
		if s.fed >= sp.warmup {
			p.withMonitor(func(m *monitor.Monitor) { ready = m.Stats().ThresholdsReady })
			if !ready && (sp.scripted || s.fed > 4*sp.warmup) {
				s.close()
				return nil, fmt.Errorf("no thresholds after %d warm-up epochs", s.fed)
			}
		}
	}
	s.attempted, s.failed = 0, 0
	return s, nil
}

func (s *session) close() error { return s.p.close() }

// atBoundary reports whether the run may stop here: always, except that a
// scripted run stops only between crisis cycles and, when it runs for a time
// rather than for a number of epochs, only after a whole rotation of the
// crisis types, so that every run measures the same mix of crises however
// many it fits in.
func (s *session) atBoundary() bool {
	if !s.spec.scripted {
		return true
	}
	every := cycleEpochs
	if s.opt.epochs == 0 {
		every *= len(crisisTypes)
	}
	return (int(s.p.stream.Epoch())-s.spec.warmup)%every == 0
}

// phase offers epochs until the budget (epochs when target > 0, else wall
// time) is spent, at least minEpochs of them, appending to *into.
func (s *session) phase(into *[]timedEpoch, budget time.Duration, target, minEpochs int, traced bool) error {
	start := time.Now()
	for n := 1; ; n++ {
		if err := s.step(&stepMode{into: into, traced: traced}); err != nil {
			return err
		}
		spent := time.Since(start) >= budget
		if target > 0 {
			spent = n >= target
		}
		exhausted := s.spec.scripted && s.closed >= maxCrises-1
		if s.atBoundary() && (spent && n >= minEpochs || exhausted) {
			return nil
		}
	}
}

type stepMode struct {
	into   *[]timedEpoch
	traced bool
}

// step generates one epoch, hands it to the pipeline (the only part on the
// clock), checks what came back and, when traced, replays it layer by layer.
// A nil mode is a warm-up step. The returned error is a benchmark failure;
// a failed epoch is counted, not returned.
func (s *session) step(mode *stepMode) error {
	traced := mode != nil && mode.traced
	tr := s.tr
	if !traced {
		tr = nil
	}
	g0 := time.Now()
	in, err := s.p.next()
	g1 := time.Now()
	if err != nil {
		return fmt.Errorf("generator: %w", err)
	}
	defer s.p.release(in)
	s.fed++
	e := int64(in.epoch)
	root := tr.begin("epoch", 0, e, -1, g0)
	defer tr.end(root)
	genSpan := "dcsim.next"
	if s.spec.dirty {
		genSpan = "dcsim.fault_next"
	}
	tr.add(genSpan, root, e, -1, g0, g1)

	// Through the reorder window an offered epoch is due as many reports as
	// leave the window: what it held, plus this epoch if accepted, minus what
	// it holds afterwards. Everywhere else, exactly one, for this epoch.
	due, heldBefore, accepted, inOrder := 1, 0, true, true
	if s.p.ing != nil {
		var next metrics.Epoch
		heldBefore, next = s.p.ing.Pending()
		accepted, inOrder = s.accepts(in.epoch, next), in.epoch == next
	}
	// Heap and monitor state are read per epoch only for a traced run's
	// kinds and counters or for the timeline.
	inspect := mode != nil && (traced || s.opt.timeline != "")
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	call := tr.begin(s.callSpan(), root, e, -1, t0)
	reps, ships, err := s.p.observe(in, tr, call)
	lat := time.Since(t0)
	tr.end(call)
	if s.p.ing != nil {
		held, _ := s.p.ing.Pending()
		due = heldBefore - held
		if accepted {
			due++
		}
	}
	if inspect {
		runtime.ReadMemStats(&m1)
	}
	if traced {
		s.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		s.gcCycles += m1.NumGC - m0.NumGC
		s.pauseNS += m1.PauseTotalNs - m0.PauseTotalNs
		s.heapEnd = m1.HeapInuse
	}

	s.attempted++
	switch {
	case err != nil:
		s.failed++
		s.problem("epoch %d: %v", e, err)
	case len(reps) != due:
		s.failed++
		s.problem("epoch %d: %d reports, %d due", e, len(reps), due)
	}

	te := timedEpoch{epoch: in.epoch, latMS: ms(lat), heapMB: float64(m1.HeapInuse) / (1 << 20)}
	var first, last time.Time
	for _, sh := range ships {
		te.frameBytes += len(sh.frame)
		if mode != nil {
			s.frameSizes = append(s.frameSizes, float64(len(sh.frame)))
		}
		if first.IsZero() || sh.done.Before(first) {
			first = sh.done
		}
		if sh.done.After(last) {
			last = sh.done
		}
	}
	te.skewMS = ms(last.Sub(first))

	var st monitor.Stats
	if inspect {
		s.p.withMonitor(func(m *monitor.Monitor) { st = m.Stats() })
	}
	switch len(reps) {
	case 0:
		te.kind = kindDropped
		if accepted {
			te.kind = kindBuffered
		}
	case 1:
		te.kind = s.classify(reps[0], st)
	default:
		te.kind = kindMultiReport
	}
	for _, rep := range reps {
		if err := s.onReport(rep, in); err != nil {
			return err
		}
	}
	if mode != nil {
		*mode.into = append(*mode.into, te)
	}
	if !traced {
		return nil
	}

	status, err := s.rp.ingest(root, e, in.rows, int(st.EpochsSeen))
	if err != nil {
		return fmt.Errorf("replay of epoch %d: %w", e, err)
	}
	// The first report is this call's rows' own only when the epoch arrived
	// in order; the reorder window may also release an older epoch's instead.
	if inOrder && len(reps) > 0 {
		rep := reps[0]
		got, want := status, rep.Status
		if got.Machines != want.Machines || got.ViolatingAny != want.ViolatingAny || got.InCrisis != want.InCrisis {
			s.problem("epoch %d: sla replay status %+v, report has %+v", e, got, want)
		}
		if te.kind == kindRefresh {
			if err := s.rp.thresholds(root, e); err != nil {
				return fmt.Errorf("threshold replay at epoch %d: %w", e, err)
			}
		}
		if s.spec.scripted {
			s.rp.selection(root, e, in.rows, rep)
		}
	}
	s.rp.frames(root, e, ships)
	return s.rp.observeParallel(root, e, in.rows)
}

func (s *session) callSpan() string {
	switch {
	case s.p.ing != nil:
		return "monitor.ingest"
	case s.p.fleet != nil:
		return "fleet.epoch"
	}
	return "monitor.observe_epoch"
}

// accepts reports, before source epoch e is offered to an ingestor waiting
// for epoch next, whether its reorder window will take e (observe or buffer
// it) rather than drop it as a duplicate or as a straggler it gave up on.
func (s *session) accepts(e, next metrics.Epoch) bool {
	for b := range s.seen {
		if b < next {
			delete(s.seen, b)
		}
	}
	if e < next || s.seen[e] {
		return false
	}
	s.seen[e] = true
	return true
}

func (s *session) classify(rep *monitor.EpochReport, st monitor.Stats) kind {
	switch {
	case s.wasActive && !rep.CrisisActive:
		return kindCrisisEnd
	case rep.CrisisActive && rep.CrisisStart == rep.Epoch:
		return kindDetect
	case rep.Advice != nil:
		return kindIdentify
	case rep.CrisisActive:
		return kindCrisisTail
	case st.ThresholdsReady && st.ThresholdAgeEpochs == 0:
		return kindRefresh
	}
	return kindSteady
}

// onReport checks one epoch report, extends the digest chain and plays the
// operator who files the ground-truth label when a crisis closes.
func (s *session) onReport(rep *monitor.EpochReport, in epochInput) error {
	if int(rep.Epoch) != s.reports {
		s.problem("report %d carries epoch %d", s.reports, rep.Epoch)
	}
	s.reports++
	fc := rep.Forecast
	if !fc.Enabled || math.IsNaN(fc.Risk) || fc.Risk < 0 || fc.Risk > 1 {
		s.problem("epoch %d: forecast snapshot %+v", rep.Epoch, fc)
	}
	if math.IsNaN(rep.Coverage) || rep.Coverage < 0 || rep.Coverage > 1 {
		s.problem("epoch %d: coverage %v", rep.Epoch, rep.Coverage)
	}
	if !s.spec.dirty && (rep.Coverage != 1 || rep.Degraded || rep.Status.Machines != s.spec.machines) {
		s.problem("epoch %d: clean input but coverage %v degraded %v machines %d",
			rep.Epoch, rep.Coverage, rep.Degraded, rep.Status.Machines)
	}
	if !s.spec.scripted && rep.CrisisActive {
		s.problem("epoch %d: crisis on a crisis-free stream", rep.Epoch)
	}

	buf := make([]byte, 0, 128)
	buf = append(buf, s.chain[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.Epoch))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.Status.Machines))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.Status.ViolatingAny))
	for _, v := range rep.Status.ViolatingPerKPI {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = append(buf, b2b(rep.Status.InCrisis), b2b(rep.CrisisActive), b2b(rep.Degraded))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rep.Coverage))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(fc.Risk))
	s.chain = sha256.Sum256(buf)
	if s.reports <= s.spec.warmup+verifyEpochs {
		s.verifyChain, s.verifyN = s.chain, s.reports
	}
	if s.reports == s.nextMark {
		s.checkpoints = append(s.checkpoints, fmt.Sprintf("digest@%d %s", s.reports, hex.EncodeToString(s.chain[:8])))
		s.nextMark *= 2
	}

	if rep.CrisisActive {
		if !s.wasActive {
			s.detected++
			want := metrics.Epoch(s.spec.warmup + (s.detected-1)*cycleEpochs + crisisOffset)
			if rep.Epoch < want || rep.Epoch > want+2 {
				s.problem("crisis %d detected at epoch %d, scripted at %d", s.detected, rep.Epoch, want)
			}
		}
		if in.active != nil {
			s.truth = in.active.Type.String()
		}
	}
	if rep.Advice != nil {
		s.advices++
		s.lastAdvice = rep.Advice.Emitted
	}
	if s.wasActive && !rep.CrisisActive {
		s.closed++
		if s.closed > len(crisisTypes) {
			s.recurrences++
			if s.lastAdvice == s.truth {
				s.identified++
			}
		}
		var err error
		s.p.withMonitor(func(m *monitor.Monitor) {
			cs := m.Crises()
			c := cs[len(cs)-1]
			if !c.Stored {
				s.problem("crisis %s closed at epoch %d but was not stored", c.ID, rep.Epoch)
			}
			err = m.ResolveCrisis(c.ID, s.truth)
		})
		if err != nil {
			return fmt.Errorf("filing label at epoch %d: %w", rep.Epoch, err)
		}
		s.lastAdvice = ident.Unknown
	}
	s.wasActive = rep.CrisisActive
	return nil
}

func b2b(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// finalChecks are the output checks that need the whole run.
func (s *session) finalChecks() {
	if s.spec.scripted {
		want := (int(s.p.stream.Epoch()) - s.spec.warmup) / cycleEpochs
		var st monitor.Stats
		s.p.withMonitor(func(m *monitor.Monitor) { st = m.Stats() })
		if s.detected != want || s.closed != want || st.CrisesStored != want || st.StoreSize != want {
			s.problem("scripted %d crises: detected %d, closed %d, tracked %d, stored %d",
				want, s.detected, s.closed, st.CrisesStored, st.StoreSize)
		}
		if s.advices != want*ident.IdentificationEpochs {
			s.problem("%d advices for %d crises, want %d each", s.advices, want, ident.IdentificationEpochs)
		}
		// Not a tolerance on accuracy (ident.accuracy reports that): a floor
		// that catches advice gone wrong wholesale. The first recurrences have
		// one labelled example each and too few pairs for a threshold, so over
		// seeds 1-24 only 2 to 4 of the first 4 are identified.
		if s.recurrences >= len(crisisTypes) && 4*s.identified < s.recurrences {
			s.problem("identified %d of %d recurrences", s.identified, s.recurrences)
		}
	}
	if s.p.ing != nil {
		var seen int64
		s.p.withMonitor(func(m *monitor.Monitor) { seen = m.Stats().EpochsSeen })
		if int(seen) != s.reports {
			s.problem("monitor saw %d epochs, benchmark got %d reports", seen, s.reports)
		}
		fs := s.p.inj.Stats()
		if int64(s.fed) != fs.Emitted {
			s.problem("offered %d epochs, injector emitted %d", s.fed, fs.Emitted)
		}
	}
}

// verifySingleNode regenerates the seed's stream and feeds a fresh
// single-node monitor: the fleet's report stream must chain to the same
// digest. This is the repository's byte-identity claim, and it is why
// steady-2k and fleet-2x1k print equal digests for one seed.
func (s *session) verifySingleNode() error {
	sp := s.spec
	sp.shards = 0
	ref, err := newPipeline(sp, s.opt.seed)
	if err != nil {
		return err
	}
	check := &session{opt: s.opt, spec: sp, p: ref, nextMark: math.MaxInt, seen: map[metrics.Epoch]bool{}}
	for check.reports < s.verifyN {
		if err := check.step(nil); err != nil {
			return err
		}
	}
	if check.chain != s.verifyChain {
		s.problem("fleet and single-node report streams differ within the first %d epochs", s.verifyN)
	}
	s.failures = append(s.failures, check.failures...)
	return nil
}

// runWorkload is one benchmark run: set up (three times), measure, check.
func runWorkload(opt options, info func(format string, args ...any)) (*result, error) {
	sp, ok := findWorkload(opt.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.machines > 0 {
		sp.machines = opt.machines
	}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	var s *session
	var setupS []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if s, err = newSession(opt, sp, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer s.close()
	info("workload %s: %d machines, %d shards, %d warm-up epochs, seed %d", sp.name, sp.machines, sp.shards, s.fed, opt.seed)

	budget := time.Duration(opt.seconds * float64(time.Second))
	floor := minEpochs
	if sp.scripted && opt.epochs == 0 {
		floor = 2 * len(crisisTypes) * cycleEpochs
	}
	if opt.trace {
		var err error
		if s.rp, err = newReplayer(s.p, tr); err != nil {
			return nil, err
		}
		// A fifth of the run stays untraced: its p50 is the base of
		// bench.trace_overhead_ratio.
		if err := s.phase(&s.lead, budget/5, opt.epochs/5, minEpochs, false); err != nil {
			return nil, err
		}
		if err := s.phase(&s.epochs, budget-budget/5, opt.epochs-opt.epochs/5, minEpochs, true); err != nil {
			return nil, err
		}
	} else if err := s.phase(&s.epochs, budget, opt.epochs, floor, false); err != nil {
		return nil, err
	}
	rss := peakRSSMB()

	s.finalChecks()
	if sp.shards > 0 {
		if err := s.verifySingleNode(); err != nil {
			return nil, fmt.Errorf("single-node verification: %w", err)
		}
	}
	if s.rp != nil {
		s.failures = append(s.failures, s.rp.failures...)
	}
	for _, c := range s.checkpoints {
		info("%s", c)
	}
	info("digest@%d %s (final)", s.reports, hex.EncodeToString(s.chain[:8]))
	if sp.scripted {
		info("crises: %d closed, %d advices, %d of %d recurrences identified", s.closed, s.advices, s.identified, s.recurrences)
	}
	for _, f := range s.failures {
		info("CHECK FAILED: %s", f)
	}

	res := &result{Correct: len(s.failures) == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metricValue{}}
	var values map[string]float64
	defs := endToEnd
	if opt.trace {
		defs = perLayer
		values = s.layerMetrics(info)
		if err := tr.write(filepath.Join(opt.outDir, sp.name+".spans.jsonl")); err != nil {
			return nil, err
		}
	} else {
		values = s.endToEndMetrics(median(setupS), rss)
	}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		info("%-36s %14.4f %s", d.Name, v, d.Unit)
	}
	if opt.timeline != "" {
		if err := s.writeTimeline(opt.timeline); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func latencies(epochs []timedEpoch) []float64 {
	out := make([]float64, len(epochs))
	for i, te := range epochs {
		out[i] = te.latMS
	}
	return out
}

func (s *session) endToEndMetrics(setupS, rssMB float64) map[string]float64 {
	lat := latencies(s.epochs)
	return map[string]float64{
		"setup_s":      setupS,
		"epochs_per_s": float64(len(lat)) / (sum(lat) / 1000),
		"epoch_ms_p50": median(lat),
		"epoch_ms_p90": quantileOf(lat, 0.9),
		"peak_rss_mb":  rssMB,
	}
}

// layerMetrics derives the per-layer metrics from the spans and counters of
// the traced phase, and prints how they account for the end-to-end numbers.
func (s *session) layerMetrics(info func(string, ...any)) map[string]float64 {
	tr, rp := s.tr, s.rp
	p50 := func(name string) float64 { return median(tr.durationsMS(name)) }
	n := float64(len(s.epochs))
	m := map[string]float64{
		"dcsim.next_ms_p50":               p50("dcsim.next"),
		"dcsim.fault_next_ms_p50":         p50("dcsim.fault_next"),
		"metrics.filter_ms_p50":           p50("metrics.filter"),
		"metrics.summarize_ms_p50":        p50("metrics.summarize"),
		"sla.evaluate_ms_p50":             p50("sla.evaluate"),
		"metrics.thresholds_ms_p50":       p50("metrics.thresholds"),
		"core.selection_ms_p50":           p50("core.selection"),
		"core.selection_rows":             median(rp.selRows),
		"metrics.dropped_cells_per_epoch": float64(rp.dropped) / n,
		"metrics.summary_gaps_per_epoch":  float64(rp.gaps) / n,
		"metrics.nonreporting_share":      float64(rp.nonReporting) / float64(rp.machinesDue),
		"monitor.parallel_nproc":          float64(runtime.NumCPU()),
		"ident.recurrences":               float64(s.recurrences),
		"runtime.gc_cycles":               float64(s.gcCycles),
		"runtime.gc_pause_ms_total":       float64(s.pauseNS) / 1e6,
		"runtime.alloc_kb_per_epoch":      float64(s.allocBytes) / 1024 / n,
		"runtime.heap_inuse_mb_end":       float64(s.heapEnd) / (1 << 20),
		"bench.traced_epochs":             n,
	}
	if rp.insertValues > 0 {
		m["quantile.insert_ns_per_value"] = float64(rp.insertNS) / float64(rp.insertValues)
		m["quantile.query_ns_per_metric"] = float64(rp.queryNS) / float64(rp.queryMetrics)
	}
	if s.recurrences > 0 {
		m["ident.accuracy"] = float64(s.identified) / float64(s.recurrences)
	}

	byKind := make([][]float64, numKinds)
	for _, te := range s.epochs {
		byKind[te.kind] = append(byKind[te.kind], te.latMS)
	}
	for k := kindSteady; k <= kindCrisisEnd; k++ {
		m["monitor.observe_ms_p50."+kindNames[k]] = median(byKind[k])
	}
	lat := latencies(s.epochs)
	m["monitor.observe_ms_p99"] = quantileOf(lat, 0.99)
	m["monitor.observe_ms_max"] = quantileOf(lat, 1)
	m["monitor.ingest_buffered"] = float64(len(byKind[kindBuffered]))
	m["monitor.ingest_no_report"] = float64(len(byKind[kindBuffered]) + len(byKind[kindDropped]))
	m["monitor.ingest_multi_report"] = float64(len(byKind[kindMultiReport]))
	s.p.withMonitor(func(mon *monitor.Monitor) { m["monitor.degraded_epochs"] = float64(mon.Stats().DegradedEpochs) })
	steady := m["monitor.observe_ms_p50.steady"]
	if len(byKind[kindIdentify]) > 0 {
		m["ident.identify_extra_ms_p50"] = m["monitor.observe_ms_p50.identify"] - m["monitor.observe_ms_p50.crisis_tail"]
	}
	m["bench.trace_overhead_ratio"] = median(lat) / median(latencies(s.lead))

	if s.p.fleet == nil {
		ingest := m["metrics.filter_ms_p50"] + m["metrics.summarize_ms_p50"] + m["sla.evaluate_ms_p50"]
		m["monitor.self_ms_p50"] = steady - ingest
		info("steady epoch %.3f ms = filter %.1f%% + summarize %.1f%% + sla %.1f%% + monitor self %.1f%%", steady,
			100*m["metrics.filter_ms_p50"]/steady, 100*m["metrics.summarize_ms_p50"]/steady,
			100*m["sla.evaluate_ms_p50"]/steady, 100*m["monitor.self_ms_p50"]/steady)
	}
	if par := tr.durationsMS("monitor.observe_parallel"); len(par) > 0 {
		m["monitor.parallel_speedup"] = steady / median(par)
	}
	if sel := m["core.selection_ms_p50"]; sel > 0 {
		excess := m["monitor.observe_ms_p50.crisis_end"] - steady
		info("crisis-end excess %.1f ms, selection replay %.1f ms (%.0f%% of it)", excess, sel, 100*sel/excess)
	}

	if rig := s.p.fleet; rig != nil {
		var perEpoch, skew []float64
		for _, te := range s.epochs {
			perEpoch = append(perEpoch, float64(te.frameBytes))
			skew = append(skew, te.skewMS)
		}
		// The handler call that ends last for an epoch is the one whose frame
		// completed it and ran the merge.
		completing := tr.lastPerEpochMS("fleet.handler")
		calls, throttled := rig.handlerCounts()
		m["fleet.epoch_frame_ms_p50"] = p50("fleet.epoch_frame")
		m["fleet.encode_ms_p50"] = p50("fleet.encode")
		m["fleet.decode_ms_p50"] = p50("fleet.decode")
		m["fleet.ship_ms_p50"] = p50("fleet.ship")
		m["fleet.handler_ms_p50"] = p50("fleet.handler")
		m["fleet.http_ms_p50"] = median(tr.selfMS("fleet.ship"))
		m["fleet.merge_ms_p50"] = median(completing) - m["fleet.decode_ms_p50"]
		m["fleet.shard_skew_ms_p50"] = median(skew)
		m["fleet.frame_bytes_per_epoch"] = median(perEpoch)
		m["fleet.frame_bytes_p50"] = median(s.frameSizes)
		m["fleet.bytes_per_machine"] = median(perEpoch) / float64(s.spec.machines)
		m["fleet.ship_retries"] = float64(calls - s.spec.shards*s.fed)
		m["fleet.throttled"] = float64(throttled)
		// The epoch waits for the slower shard, whose ship ends skew/2 after
		// the median one.
		info("fleet epoch %.3f ms vs epoch_frame %.3f + ship %.3f + skew/2 %.3f = %.3f ms", median(lat),
			m["fleet.epoch_frame_ms_p50"], m["fleet.ship_ms_p50"], m["fleet.shard_skew_ms_p50"]/2,
			m["fleet.epoch_frame_ms_p50"]+m["fleet.ship_ms_p50"]+m["fleet.shard_skew_ms_p50"]/2)
	}
	return m
}

// writeTimeline writes one CSV row per measured epoch.
func (s *session) writeTimeline(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	rows := [][]string{{"workload", "epoch", "kind", "latency_ms", "frame_bytes", "heap_inuse_mb"}}
	for _, te := range s.epochs {
		rows = append(rows, []string{
			s.spec.name, strconv.Itoa(int(te.epoch)), kindNames[te.kind],
			strconv.FormatFloat(te.latMS, 'f', 4, 64), strconv.Itoa(te.frameBytes),
			strconv.FormatFloat(te.heapMB, 'f', 2, 64),
		})
	}
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
