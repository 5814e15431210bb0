// Command dcfpd is the long-running fingerprinting daemon: it drives the
// online monitor against a continuously simulated datacenter (the §8 pilot
// deployment in miniature) and serves observability endpoints:
//
//	/metrics       Prometheus text exposition of all dcfp_* series
//	/healthz       JSON liveness + monitor snapshot
//	/crises        JSON crisis records and recent identification advice
//	/traces        JSON ring of recent per-epoch pipeline traces
//	/accuracy      JSON identification scoreboard (confusion matrix, recall)
//	/explain/{id}  JSON audit record of one crisis's identification decisions
//	/alerts        JSON alert-rule statuses (pending/firing/resolved)
//	/api/history   JSON time series of any dcfp_* metric (?metric=&since=)
//	/dash          HTML sparkline dashboard over the metric history
//	/debug/pprof/  standard Go profiling endpoints
//
// Early warning: with -forecast (default on) the monitor runs its predictive
// stage every epoch, exporting dcfp_forecast_* gauges; the alert engine
// (rules from -alert-rules, or built-in defaults including a forecast-risk
// rule) evaluates each epoch and POSTs firings/resolutions to -alert-webhook
// when set. Forecast warning episodes are scored against later detections:
// hits observe a negative time-to-identification (the lead, in epochs) into
// dcfp_ident_tti_epochs, false alarms count in dcfp_ident_forecast_total.
//
// An "operator" is simulated too (monitor.Operator): -resolve-after epochs
// after each crisis ends, its ground-truth label is filed via ResolveCrisis,
// so identification accuracy improves as the store fills. Each filed
// diagnosis is scored against the advice emitted while the crisis was open
// (§4.3), feeding /accuracy and the dcfp_ident_* family; with -audit-out set,
// every identification decision and every scored resolution is appended to a
// JSONL audit journal that survives restarts.
//
// The telemetry pipeline between simulator and monitor can be made hostile
// with the -fault-* flags (machine dropout, NaN/Inf/spike corruption,
// duplicated/delayed/dropped/truncated epochs); the monitor's degraded-data
// ingestion and the epoch reorder window (-reorder-window) absorb them.
//
// With -checkpoint-dir set the daemon atomically snapshots the full monitor
// state every -checkpoint-every epochs (and on graceful shutdown), and
// restores from the latest snapshot at startup — a crash loses at most one
// checkpoint interval of learning. A corrupt checkpoint is logged and
// ignored (cold start), never trusted.
//
// Distributed mode splits the daemon into two tiers (-role): shard-side
// "aggregator" processes each drive the deterministic simulator, run the
// filter/summarize stage over their assigned machine slice, and ship one
// partial frame per epoch to a single "coordinator" process, which merges
// the partials losslessly and runs detection, fingerprinting,
// identification, and forecasting exactly as the single-node daemon does.
// The coordinator serves the usual observability surface plus the
// /fleet/frame ingest endpoint; aggregator-side fault flags are ignored
// (frames ship the raw simulated rows). A shard that stops shipping
// surfaces as sub-floor coverage — the crisis state machine freezes rather
// than diverging — and after -fleet-dead-after missed epochs its machines
// are rebalanced onto the survivors. Coordinator checkpoints carry the
// merge watermark and per-shard epoch progress, so a restarted coordinator
// resumes where it left off and restarted aggregators fast-forward to the
// watermark via GET /fleet/assignment.
//
// Both distributed roles are crash- and signal-hardened. An aggregator keeps
// its frames in one bounded replay ring (-fleet-replay; policy in DESIGN.md
// "Coordinator failover"): undelivered ones queue through outages, delivered
// ones are retained and re-shipped when a regressed merge watermark reveals a
// coordinator restored from an older checkpoint. On SIGTERM an aggregator
// drains its queued tail under a deadline, and the coordinator force-merges
// every epoch that already has frames before its final checkpoint. After a
// checkpoint restore, metric-absence alert rules are suppressed for one
// checkpoint interval (each re-arms early if its series reappears).
//
// Chaos scenarios: `dcfpd validate [FILE|DIR ...]` statically checks
// declarative scenario files (default directory: scenarios/), and
// `dcfpd -scenario FILE` runs one in-process on the fault-injecting fleet
// harness, printing the measured result as JSON and exiting nonzero if any
// declared expectation is violated.
//
// Usage (-h lists every flag with its default):
//
//	dcfpd [flags]
//	dcfpd validate [FILE|DIR ...]
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"dcfp"
	"dcfp/internal/dcsim"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
	"dcfp/internal/telemetry"
)

// config holds every flag value; each role reads the fields it needs.
type config struct {
	addr, role, logFormat, scenario string

	// The simulated datacenter and the pace it is driven at.
	machines, thresholdDays, maxEpochs int
	seed                               int64
	interval                           time.Duration
	meanGapDays                        float64
	fault                              dcsim.FaultConfig

	// The monitor and what hangs off it.
	alpha, minCoverage                           float64
	workers, reorderWindow, traceCap, historyRaw int
	resolveAfter, ckptEvery                      int
	forecast                                     bool
	adviceOut, auditOut, ckptDir                 string
	alertRules, alertWebhook                     string

	// The fleet.
	shards, shardIndex, fleetWindow, fleetDead, fleetReplay int
	coordAddr                                               string
	fleetFlush, fleetShipTO                                 time.Duration
}

// bindFlags declares the whole flag surface on fs, storing into c.
func bindFlags(fs *flag.FlagSet, c *config) {
	fs.StringVar(&c.addr, "addr", ":9137", "HTTP listen address for /metrics, /healthz, /crises, /debug/pprof")
	fs.IntVar(&c.machines, "machines", 100, "simulated machines")
	fs.Int64Var(&c.seed, "seed", 42, "simulation seed")
	fs.DurationVar(&c.interval, "interval", 100*time.Millisecond, "wall time per simulated epoch (0 = flat out)")
	fs.Float64Var(&c.meanGapDays, "mean-gap-days", 2, "mean days between injected crises")
	fs.IntVar(&c.resolveAfter, "resolve-after", metrics.EpochsPerDay, "epochs after a crisis ends until its ground-truth diagnosis is filed (0 = never)")
	fs.IntVar(&c.thresholdDays, "threshold-days", 2, "days of history before hot/cold thresholds are established")
	fs.IntVar(&c.maxEpochs, "max-epochs", 0, "stop after this many source epochs, counting any restored from a checkpoint (0 = run until signalled)")
	fs.Float64Var(&c.alpha, "alpha", 0.05, "identification false-positive budget")
	fs.IntVar(&c.workers, "workers", 0, "goroutines the epoch's per-metric work uses (0 = GOMAXPROCS, 1 = serial); each takes at least 32 metric columns, and an epoch under 250 machines, below the measured crossover, runs serial")
	fs.StringVar(&c.logFormat, "log", "text", "event log format on stderr: text or json")

	fs.Float64Var(&c.minCoverage, "min-coverage", 0.5, "minimum reporting-machine fraction before an epoch is flagged degraded (0 disables the floor)")
	fs.IntVar(&c.reorderWindow, "reorder-window", 4, "epochs of out-of-order arrival the ingestor buffers before declaring stragglers lost")
	fs.StringVar(&c.adviceOut, "advice-out", "", "append each identification advice as a JSON line to this file")
	fs.StringVar(&c.auditOut, "audit-out", "", "append identification audit records (decisions with explanations, scored resolutions) as JSON lines to this file")
	fs.IntVar(&c.traceCap, "trace-capacity", 256, "per-epoch pipeline traces retained for /traces (0 disables tracing)")

	fs.StringVar(&c.ckptDir, "checkpoint-dir", "", "directory for atomic monitor snapshots (empty = checkpointing off)")
	fs.IntVar(&c.ckptEvery, "checkpoint-every", metrics.EpochsPerDay, "epochs between checkpoints")

	fs.BoolVar(&c.forecast, "forecast", true, "run the online forecast stage (dcfp_forecast_* early-warning signals)")
	fs.StringVar(&c.alertRules, "alert-rules", "", "JSON alert rule file (empty = built-in defaults)")
	fs.StringVar(&c.alertWebhook, "alert-webhook", "", "POST alert firings and resolutions to this URL as JSON (empty = off)")
	fs.IntVar(&c.historyRaw, "history-raw", telemetry.DefaultHistoryConfig().RawCapacity, "raw epochs of metric history retained per series for /api/history and /dash (0 disables history)")

	fs.StringVar(&c.role, "role", "single", "process role: single (monolithic), aggregator (shard-side partial aggregation), or coordinator (merge + fingerprint)")
	fs.IntVar(&c.shards, "shards", 2, "fleet shard count (aggregator and coordinator roles)")
	fs.IntVar(&c.shardIndex, "shard-index", 0, "this aggregator's shard index in [0, shards)")
	fs.StringVar(&c.coordAddr, "coordinator-addr", "", "coordinator base URL the aggregator ships frames to, e.g. http://host:9137 (aggregator role)")
	fs.IntVar(&c.fleetWindow, "fleet-window", 8, "epochs ahead of the merge watermark the coordinator accepts before throttling a shard")
	fs.DurationVar(&c.fleetFlush, "fleet-flush-after", 3*time.Second, "how long the coordinator waits for an epoch's stragglers before merging without them")
	fs.IntVar(&c.fleetDead, "fleet-dead-after", 48, "consecutive missed epochs before the coordinator declares a shard dead and rebalances its machines (0 = never)")
	fs.DurationVar(&c.fleetShipTO, "fleet-ship-timeout", 45*time.Second, "wall-clock budget for one frame delivery across retries and throttle waits before the aggregator buffers it locally")
	fs.IntVar(&c.fleetReplay, "fleet-replay", 128, "frames in the aggregator's replay ring, undelivered (queued across coordinator outages) and delivered (retained for replay) together; replay after a coordinator restart needs checkpoint age + outage length <= N epochs")

	fs.StringVar(&c.scenario, "scenario", "", "run this declarative chaos scenario file in-process and exit (nonzero on expectation violations)")

	fs.Int64Var(&c.fault.Seed, "fault-seed", 1, "fault injector RNG seed")
	fs.Float64Var(&c.fault.DropoutRate, "fault-dropout", 0, "per-machine-epoch probability of starting a dropout stretch")
	fs.Float64Var(&c.fault.BlankRate, "fault-blank", 0, "per-cell probability a metric value is blanked to NaN")
	fs.Float64Var(&c.fault.CorruptRate, "fault-corrupt", 0, "per-cell probability a value is corrupted (NaN/Inf/spike)")
	fs.Float64Var(&c.fault.DuplicateRate, "fault-duplicate", 0, "per-epoch probability the epoch is emitted twice")
	fs.Float64Var(&c.fault.DelayRate, "fault-delay", 0, "per-epoch probability the epoch arrives late and out of order")
	fs.Float64Var(&c.fault.DropEpochRate, "fault-drop-epoch", 0, "per-epoch probability the epoch vanishes entirely")
	fs.Float64Var(&c.fault.TruncateRate, "fault-truncate", 0, "per-epoch probability the epoch is cut off mid-machine")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dcfpd: ")
	if len(os.Args) > 1 && os.Args[1] == "validate" {
		os.Exit(runValidate(os.Args[2:]))
	}
	var c config
	bindFlags(flag.CommandLine, &c)
	flag.Parse()
	if c.scenario != "" {
		os.Exit(runScenarioFile(c.scenario))
	}

	var handler slog.Handler
	switch c.logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		log.Fatalf("unknown -log format %q (want text or json)", c.logFormat)
	}
	events := telemetry.NewEventLog(slog.New(handler))
	reg := telemetry.NewRegistry()
	// Shard is "-" for the roles that own the whole fleet, so the label
	// set stays identical across roles and mixed fleets can be joined on
	// the one build_info family.
	shardLabel := "-"
	if c.role == "aggregator" {
		shardLabel = strconv.Itoa(c.shardIndex)
	}
	reg.Gauge("dcfp_build_info", "Build information; the value is always 1.",
		telemetry.Label{Key: "go_version", Value: runtime.Version()},
		telemetry.Label{Key: "version", Value: dcfp.Version},
		telemetry.Label{Key: "role", Value: c.role},
		telemetry.Label{Key: "shard", Value: shardLabel}).Set(1)

	stream, err := newStream(&c, reg, events)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch c.role {
	case "aggregator":
		runAggregator(ctx, &c, stream, reg)
	case "single", "coordinator":
		d, err := newDaemon(&c, monitorConfig(&c, stream, reg, events), nil)
		if err != nil {
			log.Fatal(err)
		}
		defer d.close()
		d.restore()
		if c.role == "coordinator" {
			runCoordinator(ctx, d)
		} else {
			runSingle(ctx, d, stream)
		}
	default:
		log.Fatalf("unknown -role %q (want single, aggregator, or coordinator)", c.role)
	}
}

// newStream builds the deterministic simulated datacenter every role derives
// its catalog and SLA from (and the single and aggregator roles drive).
func newStream(c *config, reg *telemetry.Registry, events *telemetry.EventLog) (*dcsim.Stream, error) {
	scfg := dcsim.DefaultStreamConfig(c.seed)
	scfg.Machines = c.machines
	scfg.WarmupEpochs = c.thresholdDays * metrics.EpochsPerDay
	scfg.MeanGapEpochs = c.meanGapDays * float64(metrics.EpochsPerDay)
	scfg.Telemetry = reg
	scfg.Events = events
	return dcsim.NewStream(scfg)
}

// monitorConfig is the monitor the single and coordinator roles run.
func monitorConfig(c *config, stream *dcsim.Stream, reg *telemetry.Registry, events *telemetry.EventLog) monitor.Config {
	mcfg := monitor.DefaultConfig(stream.Catalog(), stream.SLA())
	mcfg.Alpha = c.alpha
	mcfg.MinEpochsForThresholds = c.thresholdDays * metrics.EpochsPerDay
	mcfg.Telemetry = reg
	mcfg.Events = events
	mcfg.Workers = c.workers
	mcfg.MinCoverage = c.minCoverage
	mcfg.ExpectedMachines = c.machines
	mcfg.Tracer = telemetry.NewTracer(c.traceCap)
	if c.forecast {
		mcfg.Forecast = monitor.DefaultForecastConfig()
	}
	return mcfg
}

// uptimeGauge is the one registration site of dcfp_uptime_seconds.
func uptimeGauge(reg *telemetry.Registry) *telemetry.Gauge {
	return reg.Gauge("dcfp_uptime_seconds", "Seconds since daemon start.")
}

// pacer returns a wait that blocks for the rest of the current interval tick
// (not at all for interval 0) and reports false once ctx is done, plus the
// function that releases the ticker.
func pacer(ctx context.Context, interval time.Duration) (wait func() bool, stop func()) {
	if interval <= 0 {
		return func() bool { return ctx.Err() == nil }, func() {}
	}
	tick := time.NewTicker(interval)
	return func() bool {
		select {
		case <-ctx.Done():
			return false
		case <-tick.C:
			return true
		}
	}, tick.Stop
}

// shutdownHTTP stops the observability server under a short deadline.
func shutdownHTTP(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

// runSingle is the monolithic role: the simulator, the fault injector and
// the monitor in one process, one epoch per -interval.
func runSingle(ctx context.Context, d *daemon, stream *dcsim.Stream) {
	c := d.cfg
	c.fault.Telemetry = d.mcfg.Telemetry
	inj, err := dcsim.NewFaultInjector(stream, c.fault)
	if err != nil {
		log.Fatal(err)
	}
	// Fast-forward the deterministic simulator+injector past everything a
	// restored monitor has already seen (both are rebuilt from their seeds).
	for i := int64(0); i < d.emitted; i++ {
		if _, err := inj.Next(); err != nil {
			log.Fatal(err)
		}
	}

	srv, bound, err := telemetry.Serve(c.addr, telemetry.NewHandler(d.mcfg.Telemetry, d.endpoints()))
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving http://%s/{metrics,healthz,crises,traces,accuracy,explain,alerts,api/history,dash,debug/pprof} — %d machines, %d metrics, epoch interval %v",
		bound, c.machines, stream.Catalog().Len(), c.interval)

	wait, stop := pacer(ctx, c.interval)
	defer stop()
	for c.maxEpochs == 0 || inj.Stats().Epochs < int64(c.maxEpochs) {
		ep, err := inj.NextContext(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				break
			}
			log.Fatal(err)
		}
		if err := d.step(ep); err != nil {
			log.Fatal(err)
		}
		// The ingestor deep-copies anything it buffers and the monitor
		// copies anything it retains, so the emission's rows can go back
		// to the injector as soon as the step returns.
		inj.Recycle(ep)
		// Only this goroutine writes d.emitted in the single role.
		if c.ckptDir != "" && c.ckptEvery > 0 && d.emitted%int64(c.ckptEvery) == 0 {
			d.checkpoint()
		}
		if !wait() {
			break
		}
	}

	shutdownHTTP(srv)
	d.finish()
}
