// Package dcfp is a Go implementation of datacenter fingerprinting —
// automated classification of performance crises — after Bodík, Goldszmidt,
// Fox and Andersen, "Fingerprinting the Datacenter: Automated Classification
// of Performance Crises" (EuroSys 2010).
//
// A fingerprint summarizes the performance state of a whole datacenter in a
// small vector: each collected metric is summarized across all machines by
// its 25th/50th/95th quantiles, each quantile value is discretized against
// hot/cold thresholds learned from crisis-free history, and only the
// metrics statistically relevant to past crises are kept. Crises are
// compared by L2 distance between their fingerprints, so a recurring
// incident can be recognized — and its known remedy retrieved — within
// minutes of detection.
//
// # Quick start
//
// The highest-level entry point is the Monitor: feed it one epoch of
// per-machine samples at a time and act on the advice it emits during
// crises:
//
//	cat, _ := dcfp.NewCatalog([]string{"latency_ms", "queue_len", ...})
//	cfg := dcfp.DefaultMonitorConfig(cat, slaConfig)
//	mon, _ := dcfp.NewMonitor(cfg)
//	for epoch := range samples {
//	    rep, _ := mon.ObserveEpoch(samples[epoch]) // [machine][metric]
//	    if rep.Advice != nil && rep.Advice.Emitted != dcfp.Unknown {
//	        fmt.Println("recurrence of", rep.Advice.Emitted)
//	    }
//	}
//
// Lower-level building blocks (quantile tracks, thresholds, fingerprinters,
// the crisis store, identification-threshold rules) are exported for
// callers that integrate with an existing metrics pipeline, and a full
// datacenter simulator (Simulate) reproduces the paper's evaluation
// workload.
package dcfp

import (
	"log/slog"
	"net/http"

	"dcfp/internal/alert"
	"dcfp/internal/core"
	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/evolution"
	"dcfp/internal/fleet"
	"dcfp/internal/forecast"
	"dcfp/internal/ident"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
	"dcfp/internal/quantile"
	"dcfp/internal/sla"
	"dcfp/internal/telemetry"
	"dcfp/internal/tracefile"
)

// Version is the library version, exposed by dcfpd as dcfp_build_info.
const Version = "0.8.0"

// Epoch indexes the 15-minute aggregation grid; see EpochDuration.
type Epoch = metrics.Epoch

// EpochDuration is the aggregation epoch length (15 minutes in the paper).
const EpochDuration = metrics.EpochDuration

// EpochsPerDay is the number of epochs per day (96).
const EpochsPerDay = metrics.EpochsPerDay

// NumQuantiles is the number of tracked quantiles per metric (3).
const NumQuantiles = metrics.NumQuantiles

// Unknown is the "don't know" identification label.
const Unknown = ident.Unknown

// Catalog names the metric columns of a sample row.
type Catalog = metrics.Catalog

// NewCatalog builds a metric catalog from unique, non-empty names.
func NewCatalog(names []string) (*Catalog, error) { return metrics.NewCatalog(names) }

// QuantileTrack stores per-epoch cross-machine metric quantiles.
type QuantileTrack = metrics.QuantileTrack

// NewQuantileTrack returns an empty track over numMetrics metrics.
func NewQuantileTrack(numMetrics int) (*QuantileTrack, error) {
	return metrics.NewQuantileTrack(numMetrics)
}

// Matrix is a dense row-major epoch sample matrix (one row per machine, one
// column per metric) backed by contiguous storage — the allocation-free
// representation the simulator, fault injector, and monitor move epochs in.
type Matrix = metrics.Matrix

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix { return metrics.NewMatrix(rows, cols) }

// MatrixPool recycles equally-shaped matrices so steady-state epoch loops
// stop allocating.
type MatrixPool = metrics.MatrixPool

// Thresholds holds hot/cold boundaries per metric quantile (§3.3).
type Thresholds = metrics.Thresholds

// ThresholdConfig configures hot/cold threshold estimation.
type ThresholdConfig = metrics.ThresholdConfig

// DefaultThresholdConfig is the paper's best setting: 2nd/98th percentiles
// over a 240-day crisis-free moving window.
func DefaultThresholdConfig() ThresholdConfig { return metrics.DefaultThresholdConfig() }

// ComputeThresholds estimates hot/cold thresholds from the track over the
// window ending at end, using only epochs isNormal reports crisis-free.
func ComputeThresholds(track *QuantileTrack, isNormal func(Epoch) bool, end Epoch, cfg ThresholdConfig) (*Thresholds, error) {
	return metrics.ComputeThresholds(track, isNormal, end, cfg)
}

// SLAConfig couples KPI definitions with the datacenter crisis rule.
type SLAConfig = sla.Config

// KPI is a key performance indicator with an SLA threshold.
type KPI = sla.KPI

// EpochStatus is the per-epoch SLA evaluation result.
type EpochStatus = sla.EpochStatus

// Episode is a contiguous run of crisis epochs.
type Episode = sla.Episode

// Fingerprinter builds epoch and crisis fingerprints from quantile rows.
type Fingerprinter = core.Fingerprinter

// NewFingerprinter builds a fingerprinter over thresholds and a relevant
// metric subset.
func NewFingerprinter(th *Thresholds, relevant []int) (*Fingerprinter, error) {
	return core.NewFingerprinter(th, relevant)
}

// AllMetrics is the identity relevant set (the all-metrics baseline).
func AllMetrics(n int) []int { return core.AllMetrics(n) }

// SummaryRange selects the epochs averaged into a crisis fingerprint.
type SummaryRange = core.SummaryRange

// DefaultSummaryRange is the paper's window: 30 minutes before detection
// through 60 minutes after.
func DefaultSummaryRange() SummaryRange { return core.DefaultSummaryRange() }

// Distance is the fingerprint similarity metric (L2).
func Distance(a, b []float64) (float64, error) { return core.Distance(a, b) }

// CrisisSamples is the machine-level training set for feature selection.
type CrisisSamples = core.CrisisSamples

// SelectionConfig controls relevant-metric selection.
type SelectionConfig = core.SelectionConfig

// DefaultSelectionConfig is the paper's online setting (top 10 per crisis,
// 30 most frequent).
func DefaultSelectionConfig() SelectionConfig { return core.DefaultSelectionConfig() }

// SelectRelevantMetrics runs the two-step relevance pipeline of §3.4.
func SelectRelevantMetrics(pool []CrisisSamples, cfg SelectionConfig) ([]int, error) {
	return core.SelectRelevantMetrics(pool, cfg)
}

// LabeledPair is a past-crisis pair distance with a same-type flag.
type LabeledPair = core.LabeledPair

// OnlineThreshold estimates the identification threshold from past crises
// only, per the rules of §5.3.
func OnlineThreshold(pairs []LabeledPair, alpha float64) (float64, error) {
	return core.OnlineThreshold(pairs, alpha)
}

// CrisisStore keeps past crises' raw quantile rows so their fingerprints
// can be recomputed as thresholds drift (§6.3).
type CrisisStore = core.Store

// NewCrisisStore returns an empty store; update=true (recommended)
// recomputes stored fingerprints under current thresholds.
func NewCrisisStore(update bool) *CrisisStore { return core.NewStore(update) }

// QuantileEstimator summarizes a stream of observations (one per machine)
// and answers quantile queries.
type QuantileEstimator = quantile.Estimator

// NewExactQuantiles returns an exact estimator.
func NewExactQuantiles() QuantileEstimator { return quantile.NewExact() }

// Monitor is the online advisory-mode engine (§8 pilot): feed per-machine
// samples epoch by epoch; it detects crises and emits identification
// advice.
type Monitor = monitor.Monitor

// MonitorConfig assembles a Monitor.
type MonitorConfig = monitor.Config

// Advice is the per-epoch identification output during a crisis.
type Advice = monitor.Advice

// EpochReport is the result of feeding one epoch into the Monitor.
type EpochReport = monitor.EpochReport

// DefaultMonitorConfig returns the paper's online parameters.
func DefaultMonitorConfig(cat *Catalog, slaCfg SLAConfig) MonitorConfig {
	return monitor.DefaultConfig(cat, slaCfg)
}

// NewMonitor builds a Monitor.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) { return monitor.New(cfg) }

// MonitorStats is a point-in-time snapshot of a Monitor's operational state
// (epochs seen, store contents, active crisis, threshold age).
type MonitorStats = monitor.Stats

// CrisisRecord summarizes one crisis the Monitor has seen.
type CrisisRecord = monitor.CrisisRecord

// TelemetryRegistry collects counters, gauges and latency histograms from
// the monitor and the simulator; attach one via MonitorConfig.Telemetry /
// SimConfig.Telemetry and render it with WritePrometheus or serve it with
// TelemetryHandler. A nil registry disables instrumentation at ~zero cost.
type TelemetryRegistry = telemetry.Registry

// NewTelemetryRegistry returns an empty metrics registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// EventLog is the structured crisis-lifecycle event stream; attach one via
// MonitorConfig.Events / SimConfig.Events. A nil event log is disabled.
type EventLog = telemetry.EventLog

// NewEventLog wraps a slog logger into an EventLog (nil logger = disabled).
func NewEventLog(l *slog.Logger) *EventLog { return telemetry.NewEventLog(l) }

// TelemetryHandler serves /metrics (Prometheus text exposition), /healthz,
// /crises and /debug/pprof. The health and crises functions are optional
// JSON payload providers (nil = default health, 404 crises).
func TelemetryHandler(reg *TelemetryRegistry, health func() any, crises func() any) http.Handler {
	return telemetry.Handler(reg, health, crises)
}

// TelemetryEndpoints wires JSON payload providers into the observability
// handler: health, crises, traces, the accuracy scoreboard, and per-crisis
// explanations. Nil providers 404.
type TelemetryEndpoints = telemetry.Endpoints

// NewTelemetryHandler is TelemetryHandler plus the decision-tracing routes
// /traces, /accuracy and /explain/{crisisID}.
func NewTelemetryHandler(reg *TelemetryRegistry, ep TelemetryEndpoints) http.Handler {
	return telemetry.NewHandler(reg, ep)
}

// Tracer records one bounded ring of per-epoch pipeline traces; attach one
// via MonitorConfig.Tracer. A nil Tracer disables tracing at zero cost —
// every span call on the nil chain is an allocation-free no-op.
type Tracer = telemetry.Tracer

// NewTracer returns a tracer retaining the capacity most recent traces
// (capacity < 1 returns nil: tracing disabled).
func NewTracer(capacity int) *Tracer { return telemetry.NewTracer(capacity) }

// TraceSnapshot is one completed trace: the stage spans of a single epoch's
// journey through ingest → filter → summarize → fingerprint → match → advise.
type TraceSnapshot = telemetry.TraceSnapshot

// SpanSnapshot is one completed stage span within a TraceSnapshot.
type SpanSnapshot = telemetry.SpanSnapshot

// Explanation is the audit record attached to Advice: per-candidate distance
// breakdowns, the relevant set and threshold generation used, the α
// threshold compared against, and the stability vote sequence (§4–5).
type Explanation = ident.Explanation

// CandidateExplanation decomposes one candidate's L2 distance into its
// top-k per-metric-quantile contributions plus a residual.
type CandidateExplanation = core.CandidateExplanation

// Contribution is one signed (metric, quantile) term of a squared distance.
type Contribution = core.Contribution

// Scoreboard is the live identification-accuracy ledger: operator feedback
// in, rolling confusion matrix, known/unknown accuracy, time-to-stable-
// identification histogram and per-type recall out (dcfp_ident_* metrics).
type Scoreboard = monitor.Scoreboard

// NewScoreboard builds a scoreboard, optionally exporting dcfp_ident_*
// metrics into reg (nil disables the export, never the ledger).
func NewScoreboard(reg *TelemetryRegistry) *Scoreboard { return monitor.NewScoreboard(reg) }

// ScoreboardFeedback is one scored operator diagnosis.
type ScoreboardFeedback = monitor.Feedback

// ScoreboardState is the serializable scoreboard snapshot (the /accuracy
// payload).
type ScoreboardState = monitor.ScoreboardState

// CheckpointMeta is caller-owned metadata stored alongside a Monitor
// checkpoint (source position, opaque daemon state).
type CheckpointMeta = monitor.CheckpointMeta

// LoadCheckpoint restores the newest checkpoint in dir into mon. A missing
// checkpoint is a clean cold start (ok=false, nil error); a corrupt one is
// an error with mon untouched.
func LoadCheckpoint(dir string, mon *Monitor) (CheckpointMeta, bool, error) {
	return monitor.LoadCheckpoint(dir, mon)
}

// Ingestor sequences a possibly duplicated/reordered epoch stream in front
// of a Monitor: duplicates drop, stragglers buffer inside a bounded reorder
// window and replay in order, overdue epochs are declared lost.
type Ingestor = monitor.Ingestor

// IngestConfig tunes an Ingestor.
type IngestConfig = monitor.IngestConfig

// DefaultIngestConfig returns the default reorder window.
func DefaultIngestConfig() IngestConfig { return monitor.DefaultIngestConfig() }

// NewIngestor wraps a Monitor in an epoch sequencer.
func NewIngestor(mon *Monitor, cfg IngestConfig) (*Ingestor, error) {
	return monitor.NewIngestor(mon, cfg)
}

// IdentificationEpochs is how many epochs identification runs per crisis.
const IdentificationEpochs = ident.IdentificationEpochs

// SimConfig sizes the simulated datacenter used for evaluation.
type SimConfig = dcsim.Config

// Trace is a fully simulated datacenter history.
type Trace = dcsim.Trace

// DetectedCrisis pairs a detected episode with its ground-truth instance.
type DetectedCrisis = dcsim.DetectedCrisis

// DefaultSimConfig returns the paper-scale simulation configuration.
func DefaultSimConfig(seed int64) SimConfig { return dcsim.DefaultConfig(seed) }

// SmallSimConfig returns a fast test-scale simulation configuration.
func SmallSimConfig(seed int64) SimConfig { return dcsim.SmallConfig(seed) }

// Simulate generates a complete synthetic datacenter trace with injected
// crises per the paper's Table 1.
func Simulate(cfg SimConfig) (*Trace, error) { return dcsim.Simulate(cfg) }

// SimStreamConfig sizes the open-ended simulated epoch stream that backs
// the dcfpd daemon: no fixed horizon, crises arrive with exponential gaps.
type SimStreamConfig = dcsim.StreamConfig

// SimStream generates datacenter epochs one at a time, forever.
type SimStream = dcsim.Stream

// DefaultSimStreamConfig returns a daemon-scale stream configuration.
func DefaultSimStreamConfig(seed int64) SimStreamConfig { return dcsim.DefaultStreamConfig(seed) }

// NewSimStream builds a continuous epoch stream.
func NewSimStream(cfg SimStreamConfig) (*SimStream, error) { return dcsim.NewStream(cfg) }

// FaultConfig tunes the telemetry-pipeline fault injector: machine dropout
// stretches, NaN/Inf/spike cell corruption, duplicated/delayed/dropped/
// truncated epochs. The zero value (plus a seed) is a clean passthrough.
type FaultConfig = dcsim.FaultConfig

// FaultInjector wraps a SimStream and corrupts its output reproducibly.
type FaultInjector = dcsim.FaultInjector

// FaultyEpoch is one emission of a FaultInjector: a source epoch index
// (which may repeat, skip, or go backwards) plus its possibly corrupted
// rows.
type FaultyEpoch = dcsim.FaultyEpoch

// DefaultFaultConfig returns mild real-world-ish fault rates.
func DefaultFaultConfig(seed int64) FaultConfig { return dcsim.DefaultFaultConfig(seed) }

// NewFaultInjector wraps a stream in a seeded fault injector.
func NewFaultInjector(s *SimStream, cfg FaultConfig) (*FaultInjector, error) {
	return dcsim.NewFaultInjector(s, cfg)
}

// StandardCatalog returns the simulator's ~100-metric catalog.
func StandardCatalog() *Catalog { return dcsim.StandardCatalog() }

// StandardSLA returns the simulator's KPI/SLA configuration.
func StandardSLA(cat *Catalog) (SLAConfig, error) { return dcsim.StandardSLA(cat) }

// CrisisType enumerates the crisis classes of the paper's Table 1.
type CrisisType = crisis.Type

// CrisisInstance is one injected ground-truth crisis.
type CrisisInstance = crisis.Instance

// Forecaster warns about impending crises of one type from pre-detection
// fingerprints (the paper's §7 first future-work direction).
type Forecaster = forecast.Forecaster

// ForecastConfig shapes forecaster training.
type ForecastConfig = forecast.Config

// ForecastEvaluation scores a forecaster against ground truth.
type ForecastEvaluation = forecast.Evaluation

// DefaultForecastConfig returns sensible forecaster settings.
func DefaultForecastConfig() ForecastConfig { return forecast.DefaultConfig() }

// TrainForecaster learns the pre-crisis centroid of one crisis type from
// the detection epochs of its past occurrences.
func TrainForecaster(f *Fingerprinter, track *QuantileTrack, detections []Epoch, cfg ForecastConfig) (*Forecaster, error) {
	return forecast.Train(f, track, detections, cfg)
}

// EvolutionModel estimates the progress and remaining duration of an
// ongoing crisis from past crises' fingerprint trajectories (§7, second
// future-work direction).
type EvolutionModel = evolution.Model

// Trajectory is one resolved crisis's epoch-fingerprint sequence.
type Trajectory = evolution.Trajectory

// CrisisProgress is the evolution model's estimate for an ongoing crisis.
type CrisisProgress = evolution.Progress

// NewEvolutionModel returns an empty evolution model.
func NewEvolutionModel() *EvolutionModel { return evolution.NewModel() }

// ExtractTrajectory reads a resolved crisis's fingerprint trajectory out of
// the quantile track.
func ExtractTrajectory(f *Fingerprinter, track *QuantileTrack, id, label string, ep Episode) (Trajectory, error) {
	return evolution.ExtractTrajectory(f, track, id, label, ep)
}

// LabeledCrisisSamples couples crisis feature-selection samples with the
// operator diagnosis, for label-aware metric selection.
type LabeledCrisisSamples = core.LabeledCrisisSamples

// SelectDiscriminativeMetrics selects metrics that separate crisis *types*
// from each other (§7, third future-work direction).
func SelectDiscriminativeMetrics(pool []LabeledCrisisSamples, cfg SelectionConfig) ([]int, error) {
	return core.SelectDiscriminativeMetrics(pool, cfg)
}

// SaveTrace persists a simulated trace to disk; LoadTrace reads it back.
func SaveTrace(path string, tr *Trace) error { return tracefile.Save(path, tr) }

// LoadTrace reads a trace written by SaveTrace.
func LoadTrace(path string) (*Trace, error) { return tracefile.Load(path) }

// MonitorForecastConfig tunes the Monitor's online forecast stage: the
// fleet-level "crisis probability within Horizon epochs" signal built from
// violation trends, near-violation counts, out-of-band pressure and trained
// per-type forecasters (dcfp_forecast_* metrics; MonitorConfig.Forecast).
type MonitorForecastConfig = monitor.ForecastConfig

// DefaultMonitorForecastConfig returns the enabled forecast-stage defaults.
func DefaultMonitorForecastConfig() MonitorForecastConfig { return monitor.DefaultForecastConfig() }

// ForecastSnapshot is the forecast stage's per-epoch output on EpochReport
// and (during crises) Advice: the risk score, its components, and the
// warning-episode lifecycle fields the Scoreboard scores for lead time.
type ForecastSnapshot = monitor.ForecastSnapshot

// MaxForecastLead caps the lead-time credit (in epochs) one forecast
// warning can earn in the scoreboard's TTI histogram.
const MaxForecastLead = monitor.MaxForecastLead

// History is a bounded time-series store over a TelemetryRegistry: every
// Sample records each series' current value into per-series raw and coarse
// rings, answering /api/history queries and the /dash sparkline page.
type History = telemetry.History

// HistoryConfig sizes a History's raw and coarse rings.
type HistoryConfig = telemetry.HistoryConfig

// HistoryPoint is one (epoch, value) sample in a history ring.
type HistoryPoint = telemetry.HistoryPoint

// SeriesHistory is one labeled series' retained samples, both tiers.
type SeriesHistory = telemetry.SeriesHistory

// DefaultHistoryConfig returns the default ring sizing.
func DefaultHistoryConfig() HistoryConfig { return telemetry.DefaultHistoryConfig() }

// NewHistory attaches a history store to a registry (nil registry = nil
// store; a nil store's methods are no-ops).
func NewHistory(reg *TelemetryRegistry, cfg HistoryConfig) *History {
	return telemetry.NewHistory(reg, cfg)
}

// AlertRule is one declarative alerting rule (threshold, rate-of-change or
// absence) evaluated each epoch against live registry values.
type AlertRule = alert.Rule

// AlertConfig assembles an AlertEngine.
type AlertConfig = alert.Config

// AlertEngine evaluates alert rules once per epoch with a pending → firing
// → resolved lifecycle, exporting dcfp_alert_* metrics and notifying a
// webhook hook on every transition.
type AlertEngine = alert.Engine

// AlertNotification describes one firing or resolution.
type AlertNotification = alert.Notification

// AlertSnapshot is the /alerts payload: every rule's current status.
type AlertSnapshot = alert.Snapshot

// NewAlertEngine validates the rules and builds an engine.
func NewAlertEngine(cfg AlertConfig) (*AlertEngine, error) { return alert.New(cfg) }

// DefaultAlertRules is the built-in rule set dcfpd installs when no rule
// file is given: forecast early warning, active crisis, degraded ingestion,
// stalled epochs.
func DefaultAlertRules() []AlertRule { return alert.DefaultRules() }

// LoadAlertRules reads and validates a JSON alert rule file.
func LoadAlertRules(path string) ([]AlertRule, error) { return alert.LoadRules(path) }

// FleetAssignment maps contiguous machine ranges onto aggregator shards.
type FleetAssignment = fleet.Assignment

// FleetRange is one shard's half-open machine interval within an assignment.
type FleetRange = fleet.Range

// StaticFleetAssignment splits machines evenly across shards in index order.
func StaticFleetAssignment(machines, shards int) (FleetAssignment, error) {
	return fleet.StaticAssignment(machines, shards)
}

// FleetAggregator is the shard-local tier of the distributed pipeline: it
// runs filter and summarize over its machine range each epoch and encodes
// the partial quantile-estimator state plus liveness masks into a wire
// frame for the coordinator.
type FleetAggregator = fleet.Aggregator

// FleetAggregatorConfig assembles a FleetAggregator.
type FleetAggregatorConfig = fleet.AggregatorConfig

// NewFleetAggregator builds a shard aggregator.
func NewFleetAggregator(cfg FleetAggregatorConfig) (*FleetAggregator, error) {
	return fleet.NewAggregator(cfg)
}

// FleetCoordinator is the merge tier: it collects shard frames per epoch,
// losslessly merges partial estimators and SLA counts, synthesizes
// non-reporting machines for missing shards (surfacing them as sub-floor
// coverage), and drives the wrapped Monitor exactly as single-node
// ObserveEpoch would.
type FleetCoordinator = fleet.Coordinator

// FleetCoordinatorConfig assembles a FleetCoordinator.
type FleetCoordinatorConfig = fleet.CoordinatorConfig

// NewFleetCoordinator builds a coordinator over a Monitor.
func NewFleetCoordinator(cfg FleetCoordinatorConfig) (*FleetCoordinator, error) {
	return fleet.NewCoordinator(cfg)
}

// FleetCoordinatorState is the coordinator's checkpointable progress: merge
// watermark, shard assignment, liveness, and per-shard epoch watermarks.
type FleetCoordinatorState = fleet.CoordinatorState

// FleetHarness runs an N-shard fleet in one process — full wire codec,
// direct frame delivery — for tests and equivalence experiments.
type FleetHarness = fleet.Harness

// NewFleetHarness builds an in-process fleet over the given coordinator and
// per-shard aggregator configurations.
func NewFleetHarness(coordCfg FleetCoordinatorConfig, aggCfg FleetAggregatorConfig) (*FleetHarness, error) {
	return fleet.NewHarness(coordCfg, aggCfg)
}
