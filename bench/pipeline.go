package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/fleet"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
)

// spec is one workload: the shape of its input and which pipeline it drives.
type spec struct {
	name, why string
	machines  int
	warmup    int  // crisis-free epochs fed during set-up
	shards    int  // > 0: the fleet pipeline with this many aggregators
	dirty     bool // stream → FaultInjector → Ingestor
	scripted  bool // one scripted crisis per cycleEpochs
}

// A scripted crisis occupies epochs [crisisOffset, crisisOffset+crisisEpochs)
// of every cycleEpochs-long cycle after warm-up: 8 epochs of fault, 24 of
// calm, so the pre-crisis ring (RawPad 8) is always full and the monitor
// closes each crisis (two calm epochs) well before the cycle ends. Runs stop
// only on cycle boundaries, so every crisis that started also closed.
const (
	cycleEpochs  = 32
	crisisOffset = 8
	crisisEpochs = 8
	maxCrises    = 512
)

// crisisTypes rotate through the script; the first pass teaches the monitor
// the four labels, every later crisis is a recurrence it should identify.
var crisisTypes = []crisis.Type{crisis.TypeA, crisis.TypeB, crisis.TypeC, crisis.TypeD}

var workloads = []spec{
	{name: "steady-2k", machines: 2000, warmup: 100,
		why: "crisis-free 2000-machine epochs on one node: metrics/quantile/sla ingest does all the work; the serial baseline fleet-2x1k is compared with"},
	{name: "crisis-100", machines: 100, warmup: 200, scripted: true,
		why: "paper-scale 100 machines, a scripted crisis every 32 epochs: feature selection, identification and the crisis state machine dominate, ingest is ~2%"},
	{name: "fleet-2x1k", machines: 2000, warmup: 100, shards: 2,
		why: "steady-2k's rows through 2 shard aggregators and a loopback HTTP coordinator: frame build, codec, transport and merge show here and nowhere else"},
	{name: "dirty-2k", machines: 2000, warmup: 100, dirty: true,
		why: "steady-2k's stream through the fault injector and reorder-window ingestor: NaN filtering, nil rows, lenient summarize and degraded epochs"},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// epochInput is one generated epoch on its way into the pipeline.
type epochInput struct {
	epoch  metrics.Epoch // source epoch number
	rows   [][]float64
	active *crisis.Instance
	faulty dcsim.FaultyEpoch // dirty workload only: owns rows until released
}

// pipeline is the system under test for one workload, plus its seeded load
// generator. The generator (next) is never on the clock; observe is.
type pipeline struct {
	spec   spec
	stream *dcsim.Stream
	inj    *dcsim.FaultInjector
	cfg    monitor.Config
	mon    *monitor.Monitor
	ing    *monitor.Ingestor
	fleet  *fleetRig
}

// monitorConfig is the one monitor configuration every workload uses: the
// serial reference path, forecast stage on, thresholds after one day.
func monitorConfig(s *dcsim.Stream, workers int) monitor.Config {
	cfg := monitor.DefaultConfig(s.Catalog(), s.SLA())
	cfg.Workers = workers
	cfg.MinEpochsForThresholds = metrics.EpochsPerDay
	cfg.Forecast = monitor.DefaultForecastConfig()
	return cfg
}

func newPipeline(sp spec, seed int64) (*pipeline, error) {
	sc := dcsim.DefaultStreamConfig(seed)
	sc.Machines = sp.machines
	if sp.scripted {
		sc.WarmupEpochs = sp.warmup
		for i := 0; i < maxCrises; i++ {
			sc.Script = append(sc.Script, dcsim.ScriptedCrisis{
				Start:    metrics.Epoch(sp.warmup + i*cycleEpochs + crisisOffset),
				Duration: crisisEpochs,
				Type:     crisisTypes[i%len(crisisTypes)],
			})
		}
	} else {
		// No script and an unreachable warm-up: the stream never schedules a crisis.
		sc.WarmupEpochs = 1 << 40
	}
	stream, err := dcsim.NewStream(sc)
	if err != nil {
		return nil, err
	}
	p := &pipeline{spec: sp, stream: stream, cfg: monitorConfig(stream, 1)}
	if p.mon, err = monitor.New(p.cfg); err != nil {
		return nil, err
	}
	switch {
	case sp.dirty:
		fc := dcsim.DefaultFaultConfig(seed + 7)
		fc.DropoutRate, fc.BlankRate, fc.CorruptRate = 0.004, 0.01, 0.002
		if p.inj, err = dcsim.NewFaultInjector(stream, fc); err != nil {
			return nil, err
		}
		if p.ing, err = monitor.NewIngestor(p.mon, monitor.DefaultIngestConfig()); err != nil {
			return nil, err
		}
	case sp.shards > 0:
		if p.fleet, err = newFleetRig(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// next pulls the next epoch from the generator.
func (p *pipeline) next() (epochInput, error) {
	if p.inj != nil {
		ep, err := p.inj.Next()
		return epochInput{epoch: metrics.Epoch(ep.Epoch), rows: ep.Rows, active: ep.Active, faulty: ep}, err
	}
	e := p.stream.Epoch()
	rows, active, err := p.stream.Next()
	return epochInput{epoch: e, rows: rows, active: active}, err
}

// release hands a dirty epoch's rows back to the injector's pool.
func (p *pipeline) release(in epochInput) {
	if p.inj != nil {
		p.inj.Recycle(in.faulty)
	}
}

// observe hands one epoch to the pipeline and returns the reports it
// produced (exactly one, except through the reorder window) and, for the
// fleet, the per-shard shipping results. This is the timed call; the fleet
// records its per-shard spans under parent when tr is not nil.
func (p *pipeline) observe(in epochInput, tr *tracer, parent int) ([]*monitor.EpochReport, []shipResult, error) {
	switch {
	case p.ing != nil:
		reps, err := p.ing.Ingest(in.epoch, in.rows)
		return reps, nil, err
	case p.fleet != nil:
		return p.fleet.observe(in, tr, parent)
	}
	rep, err := p.mon.ObserveEpoch(in.rows)
	if err != nil {
		return nil, nil, err
	}
	return []*monitor.EpochReport{rep}, nil, nil
}

// withMonitor runs fn on the pipeline's monitor from a goroutine allowed to
// touch it: the coordinator owns the fleet's monitor, so fn runs under its lock.
func (p *pipeline) withMonitor(fn func(*monitor.Monitor)) {
	if p.fleet != nil {
		p.fleet.coord.Sync(func(fleet.CoordinatorState) { fn(p.mon) })
		return
	}
	fn(p.mon)
}

func (p *pipeline) close() error {
	if p.fleet != nil {
		return p.fleet.close()
	}
	return nil
}

// fleetRig is the fleet workload's plumbing: one aggregator, goroutine and
// keep-alive connection per shard, and a real net/http server on loopback
// serving Coordinator.Handler().
type fleetRig struct {
	coord   *fleet.Coordinator
	srv     *http.Server
	served  chan error
	workers []*shardWorker
	wg      sync.WaitGroup
	// The tracer (nil pointer: untraced), epoch and per-shard open fleet.ship
	// span of the epoch in flight; the handler wrapper records its span
	// under the ship span.
	tr       atomic.Pointer[tracer]
	epoch    atomic.Int64
	shipSpan []atomic.Int64

	mu      sync.Mutex
	reports []*monitor.EpochReport // appended by OnReport, drained by observe
	calls   int                    // frames the handler served
	throttl int                    // ...of which answered 429
}

type shardWorker struct {
	agg       *fleet.Aggregator
	transport *http.Transport
	in        chan shipJob
	out       chan shipResult
}

type shipJob struct {
	in     epochInput
	parent int
}

// shipResult is one shard's half of a fleet epoch.
type shipResult struct {
	frame   []byte
	frameMS float64 // Aggregator.EpochFrame
	shipMS  float64 // Aggregator.ShipEpoch round trip
	done    time.Time
	ack     *fleet.Ack
	err     error
}

func newFleetRig(p *pipeline) (*fleetRig, error) {
	sp := p.spec
	rig := &fleetRig{served: make(chan error, 1), shipSpan: make([]atomic.Int64, sp.shards)}
	var err error
	rig.coord, err = fleet.NewCoordinator(fleet.CoordinatorConfig{
		Machines:   sp.machines,
		Shards:     sp.shards,
		Monitor:    p.mon,
		FlushAfter: -1, // a late shard must stall the epoch, not be synthesized away
		OnReport: func(rep *monitor.EpochReport, _ *crisis.Instance) {
			rig.mu.Lock()
			rig.reports = append(rig.reports, rep)
			rig.mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// Each shard posts under its own path prefix so the handler wrapper knows
	// whose frame it is serving without decoding it.
	mux := http.NewServeMux()
	handler := rig.coord.Handler()
	for s := 0; s < sp.shards; s++ {
		prefix := fmt.Sprintf("/shard%d", s)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, rig.wrap(handler, s)))
	}
	rig.srv = &http.Server{Handler: mux}
	go func() { rig.served <- rig.srv.Serve(ln) }()

	for s := 0; s < sp.shards; s++ {
		tp := &http.Transport{MaxIdleConnsPerHost: 1}
		agg, err := fleet.NewAggregator(fleet.AggregatorConfig{
			Shard:          s,
			Shards:         sp.shards,
			Machines:       sp.machines,
			NumMetrics:     p.cfg.Catalog.Len(),
			SLA:            p.cfg.SLA,
			CoordinatorURL: fmt.Sprintf("http://%s/shard%d", ln.Addr(), s),
			Client:         &http.Client{Transport: tp, Timeout: 30 * time.Second},
		})
		if err != nil {
			rig.close()
			return nil, err
		}
		w := &shardWorker{agg: agg, transport: tp, in: make(chan shipJob), out: make(chan shipResult)}
		rig.workers = append(rig.workers, w)
		rig.wg.Add(1)
		go rig.runShard(s, w)
	}
	return rig, nil
}

// statusRecorder remembers the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// wrap counts and, when tracing, times every frame the coordinator's handler
// serves for one shard.
func (rig *fleetRig) wrap(next http.Handler, shard int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		rig.tr.Load().add("fleet.handler", int(rig.shipSpan[shard].Load()), rig.epoch.Load(), shard, start, time.Now())
		rig.mu.Lock()
		rig.calls++
		if rec.code == http.StatusTooManyRequests {
			rig.throttl++
		}
		rig.mu.Unlock()
	})
}

func (rig *fleetRig) runShard(shard int, w *shardWorker) {
	defer rig.wg.Done()
	for job := range w.in {
		var res shipResult
		tr := rig.tr.Load()
		e := job.in.epoch
		t0 := time.Now()
		res.frame, res.err = w.agg.EpochFrame(e, job.in.rows, job.in.active)
		t1 := time.Now()
		res.frameMS = ms(t1.Sub(t0))
		tr.add("fleet.epoch_frame", job.parent, int64(e), shard, t0, t1)
		if res.err == nil {
			id := tr.begin("fleet.ship", job.parent, int64(e), shard, t1)
			rig.shipSpan[shard].Store(int64(id))
			res.ack, res.err = w.agg.ShipEpoch(context.Background(), e, res.frame)
			res.done = time.Now()
			tr.end(id)
			res.shipMS = ms(res.done.Sub(t1))
		}
		w.out <- res
	}
}

// observe ships one epoch through every shard concurrently and waits for the
// acks; the completing frame's handler has merged the epoch and delivered
// the report through OnReport before its ack went out.
func (rig *fleetRig) observe(in epochInput, tr *tracer, parent int) ([]*monitor.EpochReport, []shipResult, error) {
	rig.tr.Store(tr)
	rig.epoch.Store(int64(in.epoch))
	for _, w := range rig.workers {
		w.in <- shipJob{in: in, parent: parent}
	}
	results := make([]shipResult, len(rig.workers))
	var errs []error
	for s, w := range rig.workers {
		results[s] = <-w.out
		switch r := results[s]; {
		case r.err != nil:
			errs = append(errs, fmt.Errorf("shard %d: %w", s, r.err))
		case !r.ack.OK || r.ack.Throttle || r.ack.Stale:
			errs = append(errs, fmt.Errorf("shard %d: frame for epoch %d not accepted (ok=%v throttle=%v stale=%v %s)",
				s, in.epoch, r.ack.OK, r.ack.Throttle, r.ack.Stale, r.ack.Error))
		}
	}
	rig.mu.Lock()
	reps := rig.reports
	rig.reports = nil
	rig.mu.Unlock()
	return reps, results, errors.Join(errs...)
}

// handlerCounts returns how many frames the handler served and throttled.
func (rig *fleetRig) handlerCounts() (calls, throttled int) {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	return rig.calls, rig.throttl
}

// close stops the shard goroutines and the server and waits for both.
func (rig *fleetRig) close() error {
	for _, w := range rig.workers {
		close(w.in)
	}
	rig.wg.Wait()
	for _, w := range rig.workers {
		w.transport.CloseIdleConnections()
	}
	err := rig.srv.Close()
	if serr := <-rig.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}
