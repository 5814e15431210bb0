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
// identification-threshold rules) are exported for callers that integrate
// with an existing metrics pipeline, and a full datacenter simulator
// (Simulate) reproduces the paper's evaluation workload.
package dcfp

import (
	"log/slog"
	"net/http"

	"dcfp/internal/core"
	"dcfp/internal/dcsim"
	"dcfp/internal/forecast"
	"dcfp/internal/ident"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
	"dcfp/internal/quantile"
	"dcfp/internal/sla"
	"dcfp/internal/telemetry"
)

// Version is the library version, exposed by dcfpd as dcfp_build_info.
const Version = "0.8.0"

// Epoch indexes the 15-minute aggregation grid; see EpochDuration.
type Epoch = metrics.Epoch

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

// DefaultMonitorConfig returns the paper's online parameters.
func DefaultMonitorConfig(cat *Catalog, slaCfg SLAConfig) MonitorConfig {
	return monitor.DefaultConfig(cat, slaCfg)
}

// NewMonitor builds a Monitor.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) { return monitor.New(cfg) }

// MonitorStats is a point-in-time snapshot of a Monitor's operational state
// (epochs seen, crises stored and labelled, active crisis, threshold age).
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
	return telemetry.NewHandler(reg, telemetry.Endpoints{Health: health, Crises: crises})
}

// IdentificationEpochs is how many epochs identification runs per crisis.
const IdentificationEpochs = ident.IdentificationEpochs

// SimConfig sizes the simulated datacenter used for evaluation.
type SimConfig = dcsim.Config

// Trace is a fully simulated datacenter history.
type Trace = dcsim.Trace

// DetectedCrisis pairs a detected episode with its ground-truth instance.
type DetectedCrisis = dcsim.DetectedCrisis

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

// StandardCatalog returns the simulator's ~100-metric catalog.
func StandardCatalog() *Catalog { return dcsim.StandardCatalog() }

// StandardSLA returns the simulator's KPI/SLA configuration.
func StandardSLA(cat *Catalog) (SLAConfig, error) { return dcsim.StandardSLA(cat) }

// Forecaster warns about impending crises of one type from pre-detection
// fingerprints (the paper's §7 first future-work direction).
type Forecaster = forecast.Forecaster

// ForecastConfig shapes forecaster training.
type ForecastConfig = forecast.Config

// DefaultForecastConfig returns sensible forecaster settings.
func DefaultForecastConfig() ForecastConfig { return forecast.DefaultConfig() }

// TrainForecaster learns the pre-crisis centroid of one crisis type from
// the detection epochs of its past occurrences.
func TrainForecaster(f *Fingerprinter, track *QuantileTrack, detections []Epoch, cfg ForecastConfig) (*Forecaster, error) {
	return forecast.Train(f, track, detections, cfg)
}
