// Package monitor implements the online advisory mode the paper's §8 pilot
// describes: a long-running engine that consumes one epoch of per-machine
// metric samples at a time, aggregates each metric across machines into
// tracked quantiles (§3.2), evaluates the KPI SLAs (§4.1) and hands the epoch
// to online.State.Step, the paper's pipeline, as its shell (see DESIGN.md,
// "Concurrency & caching in the online monitor"). Operators feed diagnoses
// back with ResolveCrisis, turning unknown crises into known ones for future
// identification.
package monitor

import (
	"errors"
	"fmt"

	"dcfp/internal/core"
	"dcfp/internal/ident"
	"dcfp/internal/metrics"
	"dcfp/internal/online"
	"dcfp/internal/quantile"
	"dcfp/internal/sla"
	"dcfp/internal/telemetry"
)

// Config assembles a Monitor.
type Config struct {
	// Catalog names the metric columns of each sample row.
	Catalog *metrics.Catalog
	// SLA holds the KPIs and the crisis rule.
	SLA sla.Config
	// Thresholds configures the hot/cold moving window.
	Thresholds metrics.ThresholdConfig
	// Selection configures relevant-metric selection.
	Selection core.SelectionConfig
	// Alpha is the false-positive budget for the identification
	// threshold (§5.3).
	Alpha float64
	// ThresholdRefreshEpochs is how often hot/cold thresholds are
	// re-estimated (default: daily).
	ThresholdRefreshEpochs int
	// RawPad is how many pre-crisis epochs of raw machine samples are
	// retained (ring buffer) for feature selection.
	RawPad int
	// MinEpochsForThresholds is the minimum history before the monitor
	// can discretize (default: 7 days).
	MinEpochsForThresholds int
	// Workers bounds how many goroutines an epoch's per-metric work uses:
	// the §3.2 filter and summary split the metric columns into that many
	// contiguous ranges, each range's estimators fed by one goroutine in
	// machine order. 0 resolves to GOMAXPROCS; 1 is the serial reference, with
	// no goroutine. The count is additionally capped so each worker gets at
	// least minMetricsPerWorker (32) metric columns, and an epoch of fewer
	// than minSplitMachines (250) machines runs serially. Every worker count
	// produces byte-identical reports.
	Workers int
	// MinCoverage is the minimum fraction of expected machines that must
	// deliver at least one finite value for an epoch to be trusted. Below
	// the floor the epoch is flagged degraded: its quantile summary is still
	// tracked (over whatever machines did report) but the crisis state
	// machine is frozen — a mass telemetry outage must not read as an SLA
	// crisis, nor may it end one. 0 disables the floor; epochs with zero
	// reporting machines are always degraded.
	MinCoverage float64
	// ExpectedMachines fixes the coverage denominator. 0 (the default)
	// learns it as the running maximum of observed row counts, which is
	// exact once one full epoch has arrived.
	ExpectedMachines int
	// Telemetry optionally receives the monitor's operational metrics:
	// per-stage latency histograms on the ObserveEpoch hot path and
	// decision counters/gauges (see the README's metric reference). Nil
	// disables instrumentation at ~zero cost — no clock reads happen.
	Telemetry *telemetry.Registry
	// Events optionally receives the structured crisis-lifecycle event
	// stream (detected → advice emitted → ended → resolved). Nil disables.
	Events *telemetry.EventLog
	// Tracer optionally records one trace per ObserveEpoch call — the
	// epoch's journey through ingest → filter → summarize → fingerprint →
	// match → advise, with per-stage timings and counts — into a bounded
	// ring served by cmd/dcfpd's /traces endpoint. Nil disables; the
	// disabled path is a zero-allocation no-op.
	Tracer *telemetry.Tracer
	// Forecast configures the online early-warning stage (off by default;
	// see ForecastConfig). When enabled, every ObserveEpoch rolls the
	// fleet's violation trend, SLA proximity, out-of-band pressure and the
	// trained centroid models into a crisis-probability signal exported as
	// dcfp_forecast_* and carried on EpochReport.Forecast.
	Forecast ForecastConfig
}

// DefaultConfig returns the paper's online parameters for the given catalog
// and SLA.
func DefaultConfig(cat *metrics.Catalog, slaCfg sla.Config) Config {
	return Config{
		Catalog:                cat,
		SLA:                    slaCfg,
		Thresholds:             metrics.DefaultThresholdConfig(),
		Selection:              core.DefaultSelectionConfig(),
		Alpha:                  0.05,
		ThresholdRefreshEpochs: metrics.EpochsPerDay,
		RawPad:                 8,
		MinEpochsForThresholds: 7 * metrics.EpochsPerDay,
		MinCoverage:            0.5,
	}
}

// The report types are the pipeline's.
type (
	EpochReport      = online.EpochReport
	Advice           = online.Advice
	ForecastSnapshot = online.ForecastSnapshot
)

// Monitor is the online fingerprinting engine. Not safe for concurrent use;
// callers own the single feeding goroutine.
type Monitor struct {
	cfg Config
	st  *online.State
	agg *metrics.Aggregator

	// Degraded-ingestion state: the previous epoch's quantile summary (the
	// carry-forward source for metrics nobody reported; the track's last
	// row), which swaps with spareSummary, and the count of degraded flags.
	lastSummary, spareSummary [][3]float64
	degradedCount             int64

	// cur is the epoch being ingested: its samples are written here by the
	// filter kernel (in process) or the column pass (fleet merge), and an
	// idle epoch swaps it into the state's ring.
	cur online.Retained
	// violBuf/reportBuf are the per-epoch violation and liveness masks,
	// reused across calls so the steady-state path stops allocating them.
	violBuf, reportBuf []bool
	// Scratch for ObserveAggregated, same idea: the machine ranges the
	// partials cover, their column blocks and retained slots, and the SLA
	// statuses to combine.
	coveredBuf []coveredRange
	srcBuf     [][]float64
	atBuf      []int
	statusBuf  []sla.EpochStatus
	// minSplit is minSplitMachines; tests lower it to drive the column
	// split with epochs smaller than the crossover.
	minSplit int

	// tel is nil when no telemetry registry is attached; every
	// instrumentation site checks it before reading the clock.
	tel    *monitorMetrics
	events *telemetry.EventLog
	hook   stepSpans

	// fc is the online forecast stage, nil unless Config.Forecast.Enabled;
	// fcTel holds its metric handles (nil without a registry).
	fc    *forecastStage
	fcTel *forecastMetrics
}

// monitorMetrics holds the pre-registered metric handles of one Monitor so
// the hot path never touches the registry's maps.
type monitorMetrics struct {
	observeEpoch *telemetry.Histogram
	stages       map[string]*telemetry.Histogram

	epochs, crisesDetected, crisesResolved           *telemetry.Counter
	adviceKnown, adviceUnknown, cacheHits, cacheMiss *telemetry.Counter
	ingestDropped, ingestNonReporting, ingestGaps    *telemetry.Counter
	ingestEpochsOK, ingestEpochsDeg                  *telemetry.Counter

	storeSize, crisesLabeled, crisisActive, thresholdAge *telemetry.Gauge
	identCandidates, workers                             *telemetry.Gauge
	ingestCoverage, ingestReporting                      *telemetry.Gauge
}

// Stage label values of dcfp_monitor_stage_seconds, one per pipeline stage
// of the paper's online loop: the shell's below, and the step's
// online.Hook stages thresholds (§3.3), selection (§3.4) and identify (§3.5).
const (
	stageQuantile = "quantile" // §3.2 cross-machine quantile aggregation
	stageSLA      = "sla"      // §4.1 KPI SLA evaluation
	stageForecast = "forecast" // §7 early-warning risk estimation
)

func newMonitorMetrics(r *telemetry.Registry) *monitorMetrics {
	if r == nil {
		return nil
	}
	buckets := telemetry.TimeBuckets()
	t := &monitorMetrics{
		observeEpoch: r.Histogram("dcfp_observe_epoch_seconds",
			"End-to-end latency of Monitor.ObserveEpoch.", buckets),
		stages: make(map[string]*telemetry.Histogram),
		epochs: r.Counter("dcfp_epochs_observed_total",
			"Epochs fed into the monitor."),
		crisesDetected: r.Counter("dcfp_crises_detected_total",
			"Crisis episodes opened by the SLA rule."),
		adviceKnown: r.Counter("dcfp_advice_emitted_total",
			"Identification advice emitted, by verdict.",
			telemetry.Label{Key: "verdict", Value: "known"}),
		adviceUnknown: r.Counter("dcfp_advice_emitted_total",
			"Identification advice emitted, by verdict.",
			telemetry.Label{Key: "verdict", Value: "unknown"}),
		crisesResolved: r.Counter("dcfp_crises_resolved_total",
			"Operator diagnoses filed via ResolveCrisis."),
		cacheHits: r.Counter("dcfp_fingerprint_cache_total",
			"Stored-crisis fingerprint cache lookups, by result.",
			telemetry.Label{Key: "result", Value: "hit"}),
		cacheMiss: r.Counter("dcfp_fingerprint_cache_total",
			"Stored-crisis fingerprint cache lookups, by result.",
			telemetry.Label{Key: "result", Value: "miss"}),
		storeSize: r.Gauge("dcfp_crisis_store_size",
			"Finalized crises held in the fingerprint store."),
		crisesLabeled: r.Gauge("dcfp_crises_labeled",
			"Stored crises carrying an operator label."),
		crisisActive: r.Gauge("dcfp_crisis_active",
			"1 while a crisis episode is open, else 0."),
		thresholdAge: r.Gauge("dcfp_threshold_age_epochs",
			"Epochs since the last hot/cold threshold refresh (-1 before the first)."),
		identCandidates: r.Gauge("dcfp_ident_candidates",
			"Labeled past crises compared in the latest identification."),
		workers: r.Gauge("dcfp_monitor_workers",
			"Goroutines the latest epoch's per-metric filter and summary used (1 = serial)."),
		ingestDropped: r.Counter("dcfp_ingest_values_dropped_total",
			"Non-finite metric values filtered before reaching the quantile estimators."),
		ingestNonReporting: r.Counter("dcfp_ingest_machines_nonreporting_total",
			"Machine-epochs with no finite values (machine down or fully blanked)."),
		ingestGaps: r.Counter("dcfp_ingest_metric_gaps_total",
			"Metric-epochs no machine reported; the previous summary was carried forward."),
		ingestEpochsOK: r.Counter("dcfp_ingest_epochs_total",
			"Epochs ingested, by input quality.",
			telemetry.Label{Key: "quality", Value: "ok"}),
		ingestEpochsDeg: r.Counter("dcfp_ingest_epochs_total",
			"Epochs ingested, by input quality.",
			telemetry.Label{Key: "quality", Value: "degraded"}),
		ingestCoverage: r.Gauge("dcfp_ingest_coverage_ratio",
			"Fraction of expected machines reporting in the latest epoch."),
		ingestReporting: r.Gauge("dcfp_ingest_machines_reporting",
			"Machines that delivered at least one finite value in the latest epoch."),
	}
	for _, s := range []string{stageQuantile, stageSLA, "thresholds", "selection", "identify", stageForecast} {
		t.stages[s] = r.Histogram("dcfp_monitor_stage_seconds",
			"Latency of one monitor pipeline stage.", buckets,
			telemetry.Label{Key: "stage", Value: s})
	}
	t.thresholdAge.SetInt(-1)
	return t
}

// New builds a Monitor.
func New(cfg Config) (*Monitor, error) {
	if cfg.Catalog == nil {
		return nil, errors.New("monitor: nil catalog")
	}
	if err := cfg.SLA.Validate(cfg.Catalog.Len()); err != nil {
		return nil, err
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("monitor: alpha %v out of [0,1]", cfg.Alpha)
	}
	if cfg.ThresholdRefreshEpochs <= 0 {
		return nil, errors.New("monitor: ThresholdRefreshEpochs must be positive")
	}
	if cfg.RawPad < 1 {
		return nil, errors.New("monitor: RawPad must be at least 1")
	}
	if cfg.MinEpochsForThresholds < cfg.ThresholdRefreshEpochs {
		return nil, errors.New("monitor: MinEpochsForThresholds below refresh interval")
	}
	if cfg.Workers < 0 {
		return nil, errors.New("monitor: Workers must be non-negative")
	}
	if cfg.MinCoverage < 0 || cfg.MinCoverage > 1 {
		return nil, fmt.Errorf("monitor: MinCoverage %v out of [0,1]", cfg.MinCoverage)
	}
	if cfg.ExpectedMachines < 0 {
		return nil, errors.New("monitor: ExpectedMachines must be non-negative")
	}
	if cfg.Forecast.Enabled {
		cfg.Forecast.setDefaults()
		if err := cfg.Forecast.validate(); err != nil {
			return nil, err
		}
	}
	st, err := online.New(online.Config{
		Width: cfg.Catalog.Len(), Thresholds: cfg.Thresholds, Selection: cfg.Selection, Alpha: cfg.Alpha,
		ThresholdRefreshEpochs: cfg.ThresholdRefreshEpochs, RawPad: cfg.RawPad, MinEpochsForThresholds: cfg.MinEpochsForThresholds,
	})
	if err != nil {
		return nil, err
	}
	agg, err := metrics.NewAggregator(cfg.Catalog.Len(), func() quantile.Estimator { return quantile.NewExact() })
	if err != nil {
		return nil, err
	}
	st.Expected = cfg.ExpectedMachines
	m := &Monitor{
		cfg:      cfg,
		st:       st,
		agg:      agg,
		minSplit: minSplitMachines,
		tel:      newMonitorMetrics(cfg.Telemetry),
		events:   cfg.Events,
	}
	if cfg.Forecast.Enabled {
		m.fc = newForecastStage(cfg.Forecast)
		m.fcTel = newForecastMetrics(cfg.Telemetry)
		st.Forecast = &m.fc.ForecastState
	}
	return m, nil
}

// Epoch reports the next epoch index the monitor expects.
func (m *Monitor) Epoch() metrics.Epoch { return m.st.Epoch() }

// KnownCrises reports how many crises are stored, and how many crises, stored
// or not, carry operator labels.
func (m *Monitor) KnownCrises() (stored, labeled int) { return m.st.KnownCrises() }

// Flush finalizes a crisis that is still active when the input stream ends.
// The two-calm-epoch close rule can never fire once no more epochs arrive,
// so without Flush a trailing crisis would never be stored (nor its
// feature-selection buffers released). The crisis is closed as of the last
// observed epoch. It reports whether an active crisis was finalized; with
// no crisis open it is a no-op.
func (m *Monitor) Flush() bool {
	m.hook = stepSpans{tel: m.tel, open: m.hook.open[:0]}
	res := m.st.Flush(&m.hook)
	if res.Ended {
		m.publishEnd(max(m.Epoch()-1, 0), res)
	}
	return res.Ended
}

// ResolveCrisis records the operator's diagnosis of a stored crisis.
func (m *Monitor) ResolveCrisis(id, label string) error {
	if label == "" || label == ident.Unknown {
		return fmt.Errorf("monitor: invalid label %q", label)
	}
	if !m.st.Resolve(id, label) {
		return fmt.Errorf("monitor: unknown crisis %q", id)
	}
	if m.tel != nil {
		m.tel.crisesResolved.Inc()
		_, labeled := m.KnownCrises()
		m.tel.crisesLabeled.SetInt(int64(labeled))
	}
	m.events.CrisisResolved(id, label)
	return nil
}

// Stats is a point-in-time snapshot of the monitor's operational state,
// served by cmd/dcfpd's /healthz endpoint.
type Stats struct {
	// EpochsSeen is how many epochs have been ingested.
	EpochsSeen int64 `json:"epochs_seen"`
	// CrisesStored / CrisesLabeled mirror KnownCrises.
	CrisesStored  int `json:"crises_stored"`
	CrisesLabeled int `json:"crises_labeled"`
	// StoreSize equals CrisesStored; it predates it on /healthz.
	StoreSize int `json:"store_size"`
	// CrisisActive reports an open crisis episode, with its ID and start.
	CrisisActive      bool          `json:"crisis_active"`
	ActiveCrisisID    string        `json:"active_crisis_id,omitempty"`
	ActiveCrisisStart metrics.Epoch `json:"active_crisis_start,omitempty"`
	// ThresholdsReady reports whether hot/cold thresholds exist yet;
	// ThresholdAgeEpochs is the epochs since the last refresh (-1 before
	// the first one).
	ThresholdsReady    bool  `json:"thresholds_ready"`
	ThresholdAgeEpochs int64 `json:"threshold_age_epochs"`
	// DegradedEpochs counts epochs flagged degraded (below the coverage
	// floor); MachinesExpected is the coverage denominator currently in
	// force; LastCoverage is the most recent epoch's reporting fraction.
	DegradedEpochs   int64   `json:"degraded_epochs"`
	MachinesExpected int     `json:"machines_expected"`
	LastCoverage     float64 `json:"last_coverage"`
}

// Stats snapshots the monitor. Like every Monitor method it must be called
// from the feeding goroutine (or under the caller's lock).
func (m *Monitor) Stats() Stats {
	stored, labeled := m.KnownCrises()
	s := Stats{
		EpochsSeen:         int64(m.Epoch()),
		CrisesStored:       stored,
		CrisesLabeled:      labeled,
		StoreSize:          stored,
		ThresholdsReady:    m.st.Thresholds != nil,
		ThresholdAgeEpochs: -1,
		DegradedEpochs:     m.degradedCount,
		MachinesExpected:   m.st.Expected,
		LastCoverage:       m.st.LastCoverage,
	}
	if m.st.Thresholds != nil {
		// Same convention as the dcfp_threshold_age_epochs gauge: age is
		// measured from the most recently observed epoch, not from the next
		// epoch the monitor expects.
		s.ThresholdAgeEpochs = int64(m.Epoch()) - 1 - int64(m.st.LastThresh)
	}
	if p := m.st.Active(); p != nil {
		s.CrisisActive = true
		s.ActiveCrisisID = p.ID()
		s.ActiveCrisisStart = p.State.Start
	}
	return s
}

// ActiveCrisisID is the open crisis's ID, "" when none: Stats' field
// without its walk over every crisis record. Same single-goroutine contract
// as Stats.
func (m *Monitor) ActiveCrisisID() string {
	if p := m.st.Active(); p != nil {
		return p.ID()
	}
	return ""
}

// CrisisRecord summarizes one tracked crisis for dashboards (the /crises
// payload of cmd/dcfpd).
type CrisisRecord struct {
	ID    string        `json:"id"`
	Label string        `json:"label,omitempty"`
	Start metrics.Epoch `json:"start"`
	// Active marks the currently open episode.
	Active bool `json:"active,omitempty"`
	// Stored reports whether the crisis was finalized into the store
	// (raw quantile rows captured under established thresholds).
	Stored bool `json:"stored"`
}

// Crises lists every crisis the monitor has seen, oldest first. Same
// single-goroutine contract as Stats.
func (m *Monitor) Crises() []CrisisRecord {
	out := make([]CrisisRecord, 0, len(m.st.Crises))
	for i := range m.st.Crises {
		p := &m.st.Crises[i]
		out = append(out, CrisisRecord{
			ID:     p.ID(),
			Label:  p.State.Label,
			Start:  p.State.Start,
			Active: p == m.st.Active(),
			Stored: p.State.Closed >= 0,
		})
	}
	return out
}

// Explanations returns the identification audit records of crisis id in
// ident-epoch order, each equal to the Advice.Explanation emitted with it
// (read-only: a record restored from a checkpoint is shared). ok=false for
// an unknown crisis; an empty non-nil slice for a crisis identified before
// thresholds existed. Same single-goroutine contract as Stats.
func (m *Monitor) Explanations(id string) ([]*ident.Explanation, bool) {
	return m.st.Explanations(id)
}
