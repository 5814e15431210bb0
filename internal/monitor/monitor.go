// Package monitor implements the online advisory mode the paper's §8 pilot
// describes: a long-running engine that consumes one epoch of per-machine
// metric samples at a time and
//
//   - aggregates each metric across machines into tracked quantiles (§3.2),
//   - maintains hot/cold thresholds over a crisis-free moving window (§3.3),
//   - detects crises through the KPI SLA rule (§4.1),
//   - maintains the relevant-metric set from the most recent crises (§3.4),
//   - stores past crises (as windows of its quantile track, §6.3) and,
//     during the first epochs of each new crisis, emits identification
//     advice: the label of the matching past crisis or "unknown" (§3.5,
//     §5.3).
//
// Operators feed diagnoses back with ResolveCrisis, turning unknown crises
// into known ones for future identification.
package monitor

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"dcfp/internal/core"
	"dcfp/internal/ident"
	"dcfp/internal/metrics"
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

// crisisPool is how many recent crises' metric rankings feed the relevant
// set (§3.4), and explainTopK how many per-metric-quantile contributions an
// identification explanation keeps per candidate (the rest is folded into
// the residual).
const (
	crisisPool  = 20
	explainTopK = 10
)

// summaryRange is the crisis summary window, the paper's [-30 min, +60 min]
// (§6.1). It is fixed, so a crisis restored from a checkpoint is re-read
// under the window it was stored with.
var summaryRange = core.DefaultSummaryRange()

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

// Advice is the identification output for one epoch of an active crisis.
type Advice struct {
	// CrisisID is the monitor-assigned identifier of the active crisis.
	CrisisID string
	// Epoch is the absolute epoch index the advice was computed at, so
	// advisory log lines correlate with the rest of the epoch stream.
	Epoch metrics.Epoch
	// IdentEpoch is the 0-based identification epoch (0..4).
	IdentEpoch int
	// Candidates is how many labeled past crises were compared against.
	Candidates int
	// Emitted is the advised label: a past crisis's label, or
	// ident.Unknown when nothing matches below the threshold.
	Emitted string
	// Nearest and Distance describe the closest past crisis even when it
	// was not emitted (diagnostic context for the operator).
	Nearest   string
	Distance  float64
	Threshold float64
	// Degraded marks advice computed during an epoch whose input coverage
	// fell below the floor — the fingerprint window includes carried-forward
	// or sparse quantiles, so operators should weigh it accordingly.
	Degraded bool
	// Explanation is the full audit record behind this advice: every
	// candidate's distance with its top per-metric-quantile contributions,
	// the threshold context, and the vote sequence so far. Nil only when no
	// fingerprinter could be assembled (then the whole Advice is nil too).
	Explanation *ident.Explanation `json:"explanation,omitempty"`
	// Forecast is the forecast stage's snapshot at this advice's epoch,
	// nil when the stage is disabled.
	Forecast *ForecastSnapshot `json:"forecast,omitempty"`
}

// EpochReport is the result of feeding one epoch into the monitor.
type EpochReport struct {
	Epoch        metrics.Epoch
	Status       sla.EpochStatus
	CrisisActive bool
	// CrisisStart is set while a crisis is active.
	CrisisStart metrics.Epoch
	// Advice is non-nil during the first ident.IdentificationEpochs
	// epochs of a crisis (once thresholds exist).
	Advice *Advice
	// Degraded marks an epoch whose machine coverage fell below the
	// configured floor (or that had no reporting machines at all): its
	// Status is computed over too small a sample to drive crisis
	// transitions, so the state machine held still.
	Degraded bool
	// Coverage is the fraction of expected machines that reported at least
	// one finite value this epoch.
	Coverage float64
	// Forecast is the early-warning stage's snapshot for this epoch; the
	// zero value (Enabled false) when the stage is off. A value type so
	// the steady-state path allocates nothing for it.
	Forecast ForecastSnapshot
}

// pastCrisis is the monitor's record of one crisis, open or past. A stored
// crisis (§6.3) is a window of the quantile track: the epochs of its summary
// window up to the one it closed at, from which its fingerprint is
// recomputed under whatever thresholds and relevant metrics are current.
type pastCrisis struct {
	crisisState
	id   string // crisisID of its index in Monitor.past, plus one
	open bool   // in progress; only the newest record can be open
	// memo keeps a stored crisis's fingerprint within one (thresholds
	// generation, relevant set) window.
	memo core.FingerprintMemo
	// fs holds the open crisis's machine-level feature-selection samples,
	// one block per collected epoch; endCrisis releases it.
	fs core.SampleBuffer
	// expl keeps the audit record of each identification attempt for
	// /explain and the audit journal.
	expl []keptExplanation
}

// crisisState is the part of a crisis record a checkpoint keeps, encoded as
// it is.
type crisisState struct {
	Label string // "" until operators resolve it
	Start metrics.Epoch
	// Closed is the epoch the crisis closed at if it was stored, which needs
	// thresholds to exist then; else -1, also while it is open.
	Closed metrics.Epoch
	Top    []int    // the cached per-crisis top-K metric selection
	Votes  []string // the labels emitted, over which §4.3 stability is judged
}

// keptExplanation is one identification audit record as its crisis keeps it.
// A record compares the ongoing fingerprint with every labelled crisis, so
// whole records grow with the square of the crisis count (explainTopK
// contributions per candidate). A record identify built keeps instead what
// its candidates are a pure function of — the fingerprinter, the ongoing
// fingerprint, and each candidate's index in past and label at the time —
// and explanation recomputes them: a stored crisis's window never changes,
// so the rebuilt record is the emitted one bit for bit. A record restored
// from a checkpoint stays whole (f == nil).
type keptExplanation struct {
	e     *ident.Explanation  // without Candidates unless f == nil
	f     *core.Fingerprinter // untagged, so rebuilding bypasses the memos
	part  []float64
	cands []keptCandidate // nearest first
}

// keptCandidate is one candidate of a kept record: its index in past and its
// label at the time, as an index into Monitor.labels. The lists grow with
// the square of the crisis count, so a candidate costs 8 bytes.
type keptCandidate struct{ past, label int32 }

// explanation returns kept with its candidates.
func (m *Monitor) explanation(kept keptExplanation) *ident.Explanation {
	if kept.f == nil {
		return kept.e
	}
	e := *kept.e
	if len(kept.cands) > 0 {
		e.Candidates = make([]core.CandidateExplanation, len(kept.cands))
		for i, c := range kept.cands {
			// identify ran these on the same windows, so they cannot fail.
			p := &m.past[c.past]
			fp, _, _ := kept.f.StoredFingerprint(&p.memo, m.track, p.Start, summaryRange, p.Closed)
			exp, _ := kept.f.ExplainDistance(kept.part, fp, explainTopK)
			exp.CrisisID, exp.Label = p.id, m.labels[c.label]
			e.Candidates[i] = exp
		}
	}
	return &e
}

// explanations rebuilds the audit records of p.
func (m *Monitor) explanations(p *pastCrisis) []*ident.Explanation {
	out := make([]*ident.Explanation, 0, len(p.expl))
	for _, k := range p.expl {
		out = append(out, m.explanation(k))
	}
	return out
}

// Monitor is the online fingerprinting engine. Not safe for concurrent use;
// callers own the single feeding goroutine.
type Monitor struct {
	cfg   Config
	track *metrics.QuantileTrack
	agg   *metrics.Aggregator

	// track, inCrisis and degraded hold one entry per observed epoch, so the
	// track's length is the next epoch's index. degraded marks an epoch below
	// the coverage floor.
	inCrisis   []bool
	degraded   []bool
	thresholds *metrics.Thresholds
	lastThresh metrics.Epoch

	// Degraded-ingestion state: the previous epoch's quantile summary (the
	// carry-forward source for metrics nobody reported; the track's last
	// row), the learned or configured machine-count denominator, and running
	// degradation stats (degradedCount counts the degraded flags).
	lastSummary   [][3]float64
	expected      int
	degradedCount int64
	lastCoverage  float64

	past []pastCrisis
	// labels interns the candidate labels kept records refer to (labelRef).
	labels   []string
	labelIdx map[string]int32

	// Raw-sample ring buffer for feature selection (pre-crisis epochs), one
	// retained epoch per slot (nil = never filled). An idle epoch swaps its
	// samples into the ring and takes the evicted slot's storage as the next
	// epoch's cur, so anything that outlives a slot (feature-selection
	// samples) must copy what it keeps.
	ring    []*epochSamples
	ringPos int
	// cur is the epoch being ingested: its samples are written here by the
	// filter kernel (in process) or the column pass (fleet merge).
	cur *epochSamples
	// violBuf/reportBuf are the per-epoch violation and liveness masks,
	// reused across calls so the steady-state path stops allocating them.
	violBuf, reportBuf []bool
	// Scratch for ObserveAggregated, same idea: the machine ranges the
	// partials cover, their column blocks and retained slots, the SLA
	// statuses to combine and the labels of collected crisis samples.
	coveredBuf []coveredRange
	srcBuf     [][]float64
	atBuf      []int
	statusBuf  []sla.EpochStatus
	posBuf     []bool
	// minSplit is minSplitMachines; tests lower it to drive the column
	// split with epochs smaller than the crossover.
	minSplit int

	calm int // consecutive non-crisis epochs while a crisis is open

	// thGen counts successful threshold refreshes. It tags identify's
	// fingerprinters so the stored crises' memos can tell discretization
	// windows apart (0 = no thresholds yet, memos off).
	thGen uint64
	// thrMemo carries identify's threshold between advice epochs.
	thrMemo thresholdMemo

	// tel is nil when no telemetry registry is attached; every
	// instrumentation site checks it before reading the clock.
	tel    *monitorMetrics
	events *telemetry.EventLog

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

	epochs         *telemetry.Counter
	crisesDetected *telemetry.Counter
	adviceKnown    *telemetry.Counter
	adviceUnknown  *telemetry.Counter
	crisesResolved *telemetry.Counter
	cacheHits      *telemetry.Counter
	cacheMiss      *telemetry.Counter

	ingestDropped      *telemetry.Counter
	ingestNonReporting *telemetry.Counter
	ingestGaps         *telemetry.Counter
	ingestEpochsOK     *telemetry.Counter
	ingestEpochsDeg    *telemetry.Counter

	storeSize       *telemetry.Gauge
	crisesLabeled   *telemetry.Gauge
	crisisActive    *telemetry.Gauge
	thresholdAge    *telemetry.Gauge
	identCandidates *telemetry.Gauge
	workers         *telemetry.Gauge

	ingestCoverage  *telemetry.Gauge
	ingestReporting *telemetry.Gauge
}

// Stage label values of dcfp_monitor_stage_seconds, one per pipeline stage
// of the paper's online loop.
const (
	stageQuantile   = "quantile"   // §3.2 cross-machine quantile aggregation
	stageSLA        = "sla"        // §4.1 KPI SLA evaluation
	stageThresholds = "thresholds" // §3.3 hot/cold threshold refresh
	stageSelection  = "selection"  // §3.4 per-crisis metric selection
	stageIdentify   = "identify"   // §3.5/§5.3 identification
	stageForecast   = "forecast"   // §7 early-warning risk estimation
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
	for _, s := range []string{stageQuantile, stageSLA, stageThresholds, stageSelection, stageIdentify, stageForecast} {
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
	track, err := metrics.NewQuantileTrack(cfg.Catalog.Len())
	if err != nil {
		return nil, err
	}
	agg, err := metrics.NewAggregator(cfg.Catalog.Len(), func() quantile.Estimator { return quantile.NewExact() })
	if err != nil {
		return nil, err
	}
	m := &Monitor{
		cfg:      cfg,
		track:    track,
		agg:      agg,
		ring:     make([]*epochSamples, cfg.RawPad),
		expected: cfg.ExpectedMachines,
		minSplit: minSplitMachines,
		tel:      newMonitorMetrics(cfg.Telemetry),
		events:   cfg.Events,
	}
	if cfg.Forecast.Enabled {
		m.fc = newForecastStage(cfg.Forecast)
		m.fcTel = newForecastMetrics(cfg.Telemetry)
	}
	return m, nil
}

// Epoch reports the next epoch index the monitor expects.
func (m *Monitor) Epoch() metrics.Epoch { return metrics.Epoch(m.track.NumEpochs()) }

// KnownCrises reports how many crises are stored, and how many crises, stored
// or not, carry operator labels.
func (m *Monitor) KnownCrises() (stored, labeled int) {
	for i := range m.past {
		if m.past[i].Closed >= 0 {
			stored++
		}
		if m.past[i].Label != "" {
			labeled++
		}
	}
	return stored, labeled
}

// active returns the open crisis, nil when there is none.
func (m *Monitor) active() *pastCrisis {
	if n := len(m.past); n > 0 && m.past[n-1].open {
		return &m.past[n-1]
	}
	return nil
}

// ObserveEpoch ingests one epoch of per-machine samples (samples[machine]
// [metric]) and returns the epoch report.
//
// The input may be dirty: a nil row marks a machine that delivered nothing,
// and NaN/Inf cells are filtered before they reach the quantile estimators
// or the SLA rule (a corrupt value is a telemetry fault, not an SLA breach).
// Machines with no finite values this epoch leave the crisis-rule
// denominator; when the reporting fraction falls below Config.MinCoverage
// the whole epoch is flagged degraded and the crisis state machine holds
// still rather than acting on unrepresentative data.
//
// The filter keeps the epoch as it goes, by metric column, and the
// downstream pipeline (finishEpoch) is the one the fleet coordinator's
// ObserveAggregated feeds; the filter and summary split the metric columns
// over Config.Workers goroutines when the epoch warrants it; see the Workers
// documentation for the equivalence guarantee.
//
// When a telemetry registry is attached, each pipeline stage (quantile
// aggregation, SLA evaluation, threshold refresh, selection,
// identification) is timed into dcfp_monitor_stage_seconds and the whole
// call into dcfp_observe_epoch_seconds; with a nil registry no clocks are
// read at all.
func (m *Monitor) ObserveEpoch(samples [][]float64) (*EpochReport, error) {
	tr := m.cfg.Tracer.StartTrace("observe_epoch")
	defer tr.End()
	return m.observeLocal(tr, samples)
}

// finishEpoch runs everything downstream of ingestion — liveness and
// coverage accounting, retained-row sanitization, the forecast stage, the
// crisis state machine, identification, threshold refresh, and telemetry —
// and builds the epoch report. Both ingestion modes end here, so the output
// is byte-identical across modes once the inputs (status, summary, retained
// samples, masks) match. ret is m.cur, the epoch's retained samples. The
// epoch's summary joins the track here, with its flags.
func (m *Monitor) finishEpoch(tr *telemetry.Trace, t0, ts time.Time, ret *epochSamples, reporting []bool, status sla.EpochStatus, summary [][3]float64, dropped, gaps, workers int) (rep *EpochReport, err error) {
	e := m.Epoch()
	if err := m.track.AppendEpoch(summary); err != nil {
		return nil, err
	}
	m.lastSummary = summary
	reportCount := countReporting(reporting)
	ret.reporting = reportCount
	coverage := 0.0
	if m.expected > 0 {
		coverage = float64(reportCount) / float64(m.expected)
	}
	degraded := reportCount == 0 || (m.cfg.MinCoverage > 0 && coverage < m.cfg.MinCoverage)
	ret.sanitize(summary)

	m.inCrisis = append(m.inCrisis, status.InCrisis)
	m.degraded = append(m.degraded, degraded)
	m.lastCoverage = coverage
	if degraded {
		m.degradedCount++
	}

	tr.SetAttr("epoch", int64(e))
	tr.SetAttr("machines_reporting", int64(reportCount))
	tr.SetAttr("workers", int64(workers))
	if degraded {
		tr.SetAttr("degraded", 1)
	}

	rep = &EpochReport{Epoch: e, Status: status, Degraded: degraded, Coverage: coverage}

	// Early-warning forecast stage: runs on this epoch's status, summary
	// and sanitized rows, BEFORE the crisis state machine so the detection
	// below can be scored against the warning episode it closes. Degraded
	// epochs carry the last snapshot forward — too few machines reported
	// to move the risk estimate.
	if m.fc != nil {
		if degraded {
			m.fc.Last.Epoch = e
			m.fc.Last.Degraded = true
			m.fc.Last.DetectionLead = 0
			m.fc.Last.FalseAlarm = false
			rep.Forecast = m.fc.Last
		} else {
			if m.tel != nil {
				ts = time.Now()
			}
			sp := tr.StartSpan("forecast")
			rep.Forecast = m.forecastObserve(e, status, summary, ret, m.active() != nil)
			sp.SetAttr("risk_permille", int64(rep.Forecast.Risk*1000))
			sp.End()
			ts = m.span(stageForecast, ts)
		}
	}

	// Crisis episode state machine: enter on the first violating epoch,
	// leave after two consecutive calm epochs (the detector's merge gap).
	// Degraded epochs freeze it entirely: too few machines reported to
	// either declare a crisis (spurious start on a sliver of survivors) or
	// to count as a calm epoch toward ending one.
	open := m.active() != nil
	switch {
	case degraded:
	case !open && status.InCrisis:
		m.beginCrisis(e, ret)
	case open && status.InCrisis:
		m.calm = 0
	case open && !status.InCrisis:
		m.calm++
		if m.calm > 1 {
			m.endCrisis(tr, e)
		}
	}

	p := m.active()
	if m.fc != nil && p != nil && p.Start == e {
		// A crisis was just detected: close the warning episode and score
		// its lead. The snapshot's DetectionLead is what cmd/dcfpd feeds
		// into Scoreboard.RecordForecast as a negative TTI.
		if lead, hit := m.fc.resolveDetection(e); hit {
			rep.Forecast.DetectionLead = lead
			m.fc.Last.DetectionLead = lead
			m.events.Event("forecast.hit",
				"epoch", int64(e), "lead_epochs", lead, "crisis", p.id)
		}
	}

	if p != nil {
		rep.CrisisActive = true
		rep.CrisisStart = p.Start
		if !degraded {
			m.collectCrisisSamples(p, ret)
		}
		k := int(e - p.Start)
		if k < ident.IdentificationEpochs {
			if m.tel != nil {
				ts = time.Now()
			}
			rep.Advice = m.identify(tr, p, e, k)
			if rep.Advice != nil {
				rep.Advice.Degraded = degraded
				if m.fc != nil {
					fs := rep.Forecast
					rep.Advice.Forecast = &fs
				}
			}
			m.span(stageIdentify, ts)
			m.recordAdvice(rep.Advice)
		}
	} else if !degraded {
		// Idle: feed the pre-crisis raw ring and refresh thresholds. The
		// refresh fires on threshold *age*, not calendar alignment: a
		// crisis straddling a refresh boundary would otherwise postpone
		// the refresh by a further full interval while the thresholds
		// silently grew stale, whereas age-based refresh catches up on the
		// first idle epoch. Degraded epochs feed neither: sparse rows are
		// not a usable pre-crisis baseline, and thresholds estimated over
		// them would drift toward outage artifacts.
		m.pushRing(e)
		if int(e) >= m.cfg.MinEpochsForThresholds && int(e-m.lastThresh) >= m.cfg.ThresholdRefreshEpochs {
			if m.tel != nil {
				ts = time.Now()
			}
			sp := tr.StartSpan("thresholds")
			if err := m.refreshThresholds(e); err != nil && !errors.Is(err, metrics.ErrNoNormalEpochs) {
				return nil, err
			}
			sp.End()
			m.span(stageThresholds, ts)
		}
	}
	if m.tel != nil {
		m.tel.epochs.Inc()
		m.tel.workers.SetInt(int64(workers))
		m.tel.crisisActive.SetInt(boolToGauge(p != nil))
		if m.thresholds != nil {
			m.tel.thresholdAge.SetInt(int64(e - m.lastThresh))
		}
		m.tel.ingestDropped.Add(uint64(dropped))
		if nr := m.expected - reportCount; nr > 0 {
			m.tel.ingestNonReporting.Add(uint64(nr))
		}
		m.tel.ingestGaps.Add(uint64(gaps))
		if degraded {
			m.tel.ingestEpochsDeg.Inc()
		} else {
			m.tel.ingestEpochsOK.Inc()
		}
		m.tel.ingestCoverage.Set(coverage)
		m.tel.ingestReporting.SetInt(int64(reportCount))
		m.tel.observeEpoch.ObserveSince(t0)
	}
	return rep, nil
}

// countReporting returns how many machines reported this epoch.
func countReporting(reporting []bool) int {
	count := 0
	for _, r := range reporting {
		if r {
			count++
		}
	}
	return count
}

// scratchMasks returns the per-epoch violation and liveness masks, reusing
// the monitor's scratch buffers so the steady-state path allocates nothing.
// The contents are stale: the pipeline writes every entry before reading
// any. Both masks are overwritten by the next epoch; anything retained past
// the call (the ring's violation flags) is copied out first.
func (m *Monitor) scratchMasks(n int) (viol, reporting []bool) {
	if cap(m.violBuf) < n {
		m.violBuf = make([]bool, n)
		m.reportBuf = make([]bool, n)
	}
	return m.violBuf[:n], m.reportBuf[:n]
}

// minSplitMachines is the smallest epoch whose metric columns are split
// over workers: the measured crossover of the column split. On 2 vCPUs
// (-cpu 2, Workers 4 against 1 at 100 metrics, forced split, 18 runs) it
// read:
//
//	machines  Workers=1  Workers=4  speedup median (quartiles)  wins
//	     100   0.208 ms   0.181 ms  1.10× (0.96–1.21)           12/18
//	     250   0.370 ms   0.283 ms  1.32× (1.11–1.48)           16/18
//	     500   0.761 ms   0.537 ms  1.39× (1.33–1.57)           17/18
//
// so an epoch splits from 250 machines. The crossover moves with the serial
// path's cost; re-measure when it does.
const minSplitMachines = 250

// minMetricsPerWorker caps the pool so every worker gets at least this many
// metric columns.
const minMetricsPerWorker = 32

// workers resolves how many goroutines one epoch of the given size splits
// its metric columns over.
func (m *Monitor) workers(machines int) int {
	if machines < m.minSplit {
		return 1
	}
	w := m.cfg.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	nm := m.cfg.Catalog.Len()
	return max(1, min(w, (nm+minMetricsPerWorker-1)/minMetricsPerWorker))
}

// span observes the elapsed stage time and returns a fresh stage start; a
// no-op returning the zero time when telemetry is disabled.
func (m *Monitor) span(stage string, since time.Time) time.Time {
	if m.tel == nil {
		return time.Time{}
	}
	now := time.Now()
	m.tel.stages[stage].Observe(now.Sub(since).Seconds())
	return now
}

// recordAdvice feeds one advice (possibly nil) into counters and events.
func (m *Monitor) recordAdvice(adv *Advice) {
	if adv == nil {
		return
	}
	verdict := ident.Verdict(adv.Emitted)
	if m.tel != nil {
		if verdict == ident.VerdictKnown {
			m.tel.adviceKnown.Inc()
		} else {
			m.tel.adviceUnknown.Inc()
		}
		m.tel.identCandidates.SetInt(int64(adv.Candidates))
	}
	m.events.AdviceEmitted(int64(adv.Epoch), adv.CrisisID, adv.IdentEpoch,
		verdict, adv.Emitted, adv.Nearest, adv.Distance, adv.Threshold, adv.Candidates)
}

func boolToGauge(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// retainEpoch returns cur shaped for n slots: the storage this epoch's
// samples are written into.
func (m *Monitor) retainEpoch(n int) *epochSamples {
	if m.cur == nil {
		m.cur = new(epochSamples)
	}
	m.cur.reset(n, m.cfg.Catalog.Len())
	return m.cur
}

// pushRing retains the idle epoch's samples (cur) for the pre-crisis
// feature-selection window, tagged with their epoch. The evicted slot's
// storage becomes cur for the next epoch.
func (m *Monitor) pushRing(e metrics.Epoch) {
	m.cur.epoch = e
	m.ring[m.ringPos], m.cur = m.cur, m.ring[m.ringPos]
	m.ringPos = (m.ringPos + 1) % m.cfg.RawPad
}

// crisisID names crisis number n.
func crisisID(n int) string { return fmt.Sprintf("crisis-%03d", n) }

func (m *Monitor) beginCrisis(e metrics.Epoch, cur *epochSamples) {
	p := pastCrisis{crisisState: crisisState{Start: e, Closed: -1}, id: crisisID(len(m.past) + 1), open: true}
	// Seed feature-selection samples with the buffered pre-crisis epochs,
	// oldest first. Slots carry the epoch they were filled at: the ring is
	// not drained when a crisis ends, so when crises come back to back its
	// older slots still hold rows from *before the previous episode*.
	// Those are not this crisis's baseline — only slots within RawPad
	// epochs of the new start qualify.
	for s := 0; s < m.cfg.RawPad; s++ {
		slot := (m.ringPos + s) % m.cfg.RawPad
		if m.ring[slot] == nil || m.ring[slot].epoch+metrics.Epoch(m.cfg.RawPad) < e {
			continue
		}
		m.collectCrisisSamples(&p, m.ring[slot])
	}
	m.past = append(m.past, p)
	m.calm = 0
	m.collectCrisisSamples(m.active(), cur)
	if m.tel != nil {
		m.tel.crisesDetected.Inc()
	}
	m.events.CrisisDetected(int64(e), p.id)
}

// collectCrisisSamples copies one retained epoch's reporting machines and
// their violation flags into p's feature-selection buffer as one
// metric-major block. The epoch's storage (cur, or a ring slot) gets
// recycled, so the buffer owns its copy: one allocation per collected epoch.
func (m *Monitor) collectCrisisSamples(p *pastCrisis, s *epochSamples) {
	x, pos := s.samples(m.cfg.Catalog.Len(), m.posBuf[:0])
	m.posBuf = pos
	// Every block is catalog-wide and as long as its labels, so the
	// buffer's only error, a shape mismatch, cannot occur.
	_ = p.fs.AppendBlock(x, pos)
}

// endCrisis finalizes the active crisis: stores it as the window of the track
// it closes at and runs its feature selection, which consumes the collected
// samples in place.
func (m *Monitor) endCrisis(tr *telemetry.Trace, e metrics.Epoch) {
	p := m.active()
	p.open = false
	m.calm = 0
	stored := false
	// The raw feature-selection buffers are released on *every* exit path:
	// when the crisis cannot be finalized (no thresholds yet) keeping them
	// would leak every machine row of the episode for the life of the
	// process.
	defer func() {
		p.fs = core.SampleBuffer{}
		m.events.CrisisEnded(int64(e), p.id, int(e-p.Start), stored)
	}()
	if m.thresholds == nil {
		return
	}
	p.Closed, stored = e, true
	var ts time.Time
	if m.tel != nil {
		ts = time.Now()
	}
	sp := tr.StartSpan("selection")
	top, st, err := core.PerCrisisSelection(&p.fs, m.cfg.Selection.PerCrisisTopK)
	if err != nil {
		// The crisis stays stored but currentFingerprinter skips it: say so.
		m.events.Event("selection.failed", "epoch", int64(e), "crisis", p.id, "rows", p.fs.Len(), "error", err.Error())
	}
	p.Top = top
	sp.SetAttr("rows", int64(p.fs.Len()))
	sp.SetAttr("positives", int64(st.Positives))
	sp.SetAttr("lambda_steps", int64(st.Steps))
	sp.SetAttr("iters_total", int64(st.Iters))
	sp.SetAttr("certified", int64(st.Certified))
	sp.SetAttr("exact_checks", int64(st.ExactChecks))
	sp.SetAttr("screened", int64(st.Screened))
	sp.SetAttr("selected", int64(len(top)))
	sp.End()
	m.span(stageSelection, ts)
	if m.tel != nil {
		n, _ := m.KnownCrises()
		m.tel.storeSize.SetInt(int64(n))
	}
}

// Flush finalizes a crisis that is still active when the input stream ends.
// The two-calm-epoch close rule can never fire once no more epochs arrive,
// so without Flush a trailing crisis would never be stored (nor its
// feature-selection buffers released). The crisis is closed as of the last
// observed epoch. It reports whether an active crisis was finalized; with
// no crisis open it is a no-op.
func (m *Monitor) Flush() bool {
	if m.active() == nil {
		return false
	}
	e := m.Epoch()
	if e > 0 {
		e--
	}
	m.endCrisis(nil, e)
	return true
}

// ResolveCrisis records the operator's diagnosis of a stored crisis.
func (m *Monitor) ResolveCrisis(id, label string) error {
	if label == "" || label == ident.Unknown {
		return fmt.Errorf("monitor: invalid label %q", label)
	}
	for i := range m.past {
		if m.past[i].id == id {
			m.past[i].Label = label
			if m.tel != nil {
				m.tel.crisesResolved.Inc()
				_, labeled := m.KnownCrises()
				m.tel.crisesLabeled.SetInt(int64(labeled))
			}
			m.events.CrisisResolved(id, label)
			return nil
		}
	}
	return fmt.Errorf("monitor: unknown crisis %q", id)
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
		ThresholdsReady:    m.thresholds != nil,
		ThresholdAgeEpochs: -1,
		DegradedEpochs:     m.degradedCount,
		MachinesExpected:   m.expected,
		LastCoverage:       m.lastCoverage,
	}
	if m.thresholds != nil {
		// Same convention as the dcfp_threshold_age_epochs gauge: age is
		// measured from the most recently observed epoch, not from the next
		// epoch the monitor expects.
		s.ThresholdAgeEpochs = int64(m.Epoch()) - 1 - int64(m.lastThresh)
	}
	if p := m.active(); p != nil {
		s.CrisisActive = true
		s.ActiveCrisisID = p.id
		s.ActiveCrisisStart = p.Start
	}
	return s
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
	out := make([]CrisisRecord, 0, len(m.past))
	for _, p := range m.past {
		out = append(out, CrisisRecord{
			ID:     p.id,
			Label:  p.Label,
			Start:  p.Start,
			Active: p.open,
			Stored: p.Closed >= 0,
		})
	}
	return out
}

func (m *Monitor) refreshThresholds(e metrics.Epoch) error {
	// Normal epochs are crisis-free AND fully covered: a degraded epoch's
	// quantiles describe whatever sliver of machines reported, not the
	// datacenter, so they must not shape the hot/cold percentiles.
	isNormal := func(t metrics.Epoch) bool {
		if t < 0 || int(t) >= len(m.inCrisis) {
			return true
		}
		return !m.inCrisis[t] && !m.degraded[t]
	}
	th, err := metrics.ComputeThresholds(m.track, isNormal, e, m.cfg.Thresholds)
	if err != nil {
		return err
	}
	m.thresholds = th
	m.lastThresh = e
	m.thGen++
	return nil
}

// currentFingerprinter assembles the fingerprinter from the latest
// thresholds and the relevant metrics of the most recent crises.
func (m *Monitor) currentFingerprinter() (*core.Fingerprinter, error) {
	if m.thresholds == nil {
		return nil, errors.New("monitor: thresholds not yet established")
	}
	var rankings [][]int
	for i := len(m.past) - 1; i >= 0 && len(rankings) < crisisPool; i-- {
		if m.past[i].Top != nil {
			rankings = append(rankings, m.past[i].Top)
		}
	}
	if len(rankings) == 0 {
		// No crisis history yet: fall back to the all-metrics
		// fingerprint until the first crisis's feature selection lands.
		f, err := core.NewFingerprinter(m.thresholds, core.AllMetrics(m.cfg.Catalog.Len()))
		if err != nil {
			return nil, err
		}
		f.SetGeneration(m.thGen)
		return f, nil
	}
	// NewFingerprinter sorts the relevant set: fingerprints are laid out in
	// column order, whatever order MostFrequent ranks the metrics in.
	f, err := core.NewFingerprinter(m.thresholds, core.MostFrequent(rankings, m.cfg.Selection.NumRelevant))
	if err != nil {
		return nil, err
	}
	// Tagging the fingerprinter with the thresholds generation lets each
	// stored crisis memoize its fingerprint within one (thresholds,
	// relevant-set) window; see core.FingerprintMemo.
	f.SetGeneration(m.thGen)
	return f, nil
}

// identify performs the per-epoch identification of the open crisis p; e is
// the epoch being observed, k the 0-based identification epoch. Alongside
// the Advice it builds the full audit Explanation: the decision below reads
// its nearest distance from the explanation's own candidate records, so the
// audit trail can never disagree with the decision it explains.
func (m *Monitor) identify(tr *telemetry.Trace, p *pastCrisis, e metrics.Epoch, k int) *Advice {
	isp := tr.StartSpan("identify")
	defer isp.End()
	f, err := m.currentFingerprinter()
	if err != nil {
		return nil
	}
	sp := tr.StartSpan("fingerprint")
	part, err := f.CrisisFingerprintUpTo(m.track, p.Start, summaryRange, e)
	sp.End()
	if err != nil {
		return nil
	}
	expl := &ident.Explanation{
		CrisisID:   p.id,
		Epoch:      e,
		IdentEpoch: k,
		Generation: f.Generation(),
		Relevant:   append([]int(nil), f.Relevant()...),
		Alpha:      m.cfg.Alpha,
		Emitted:    ident.Unknown,
	}
	sp = tr.StartSpan("match")
	// Each labeled stored crisis is compared through ExplainDistance, which
	// accumulates the squared distance in the same element order as
	// core.Distance — the decision value and its breakdown are one
	// computation. Its fingerprint is read through the same function as the
	// ongoing crisis's, over the window it closed with.
	var cands []identCandidate
	var hits, misses uint64
	for j := range m.past {
		c := &m.past[j]
		if c.Closed < 0 || c.Label == "" {
			continue
		}
		fp, hit, err := f.StoredFingerprint(&c.memo, m.track, c.Start, summaryRange, c.Closed)
		if err != nil {
			continue
		}
		if hit {
			hits++
		} else {
			misses++
		}
		exp, err := f.ExplainDistance(part, fp, explainTopK)
		if err != nil {
			continue
		}
		exp.CrisisID, exp.Label = c.id, c.Label
		cands = append(cands, identCandidate{exp: exp, fp: fp, past: j})
	}
	sp.SetAttr("candidates", int64(len(cands)))
	if m.tel != nil {
		m.tel.cacheHits.Add(hits)
		m.tel.cacheMiss.Add(misses)
	}
	adv := &Advice{
		CrisisID:   p.id,
		Epoch:      e,
		IdentEpoch: k,
		Candidates: len(cands),
		Emitted:    ident.Unknown,
	}
	var kept []keptCandidate
	if len(cands) > 0 {
		thr := m.thrMemo.threshold(f, cands, m.cfg.Alpha)
		// Nearest first; stable sort keeps storage order on ties, matching
		// the previous strictly-less scan.
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].exp.Distance < cands[j].exp.Distance })
		best := cands[0].exp
		adv.Nearest = best.Label
		adv.Distance = best.Distance
		adv.Threshold = thr
		expl.Threshold = thr
		if best.Distance < thr {
			adv.Emitted = best.Label
		}
		expl.Candidates = make([]core.CandidateExplanation, len(cands))
		kept = make([]keptCandidate, len(cands))
		for i, c := range cands {
			expl.Candidates[i] = c.exp
			kept[i] = keptCandidate{int32(c.past), m.labelRef(c.exp.Label)}
		}
	}
	sp.End()
	sp = tr.StartSpan("advise")
	expl.Emitted = adv.Emitted
	p.Votes = append(p.Votes, adv.Emitted)
	expl.Votes = append([]string(nil), p.Votes...)
	expl.Stable = ident.IsStable(p.Votes)
	adv.Explanation = expl
	head, untagged := *expl, *f
	head.Candidates = nil
	untagged.SetGeneration(0)
	p.expl = append(p.expl, keptExplanation{e: &head, f: &untagged, part: part, cands: kept})
	sp.End()
	return adv
}

// labelRef returns label's index in m.labels, interning it on first use.
func (m *Monitor) labelRef(label string) int32 {
	i, ok := m.labelIdx[label]
	if !ok {
		if m.labelIdx == nil {
			m.labelIdx = map[string]int32{}
		}
		i = int32(len(m.labels))
		m.labels = append(m.labels, label)
		m.labelIdx[label] = i
	}
	return i
}

// identCandidate is one labeled stored crisis identify compares against.
type identCandidate struct {
	exp  core.CandidateExplanation
	fp   []float64
	past int // index in Monitor.past
}

// thresholdMemo remembers identify's threshold, §5.3's OnlineThreshold over
// the labeled candidates' pairwise fingerprint distances. Those are a
// function of the thresholds generation, the relevant set and the ordered
// candidate (crisis ID, label) list, which stay put across most of a
// crisis's advice epochs. A cache: never checkpointed, cleared on restore.
type thresholdMemo struct {
	gen      uint64
	relevant []int
	keys     []string // crisis ID, label, crisis ID, label, … in candidate order
	thr      float64
}

// threshold returns the identification threshold over cands under f,
// recomputing it only when the key differs from the remembered one.
func (c *thresholdMemo) threshold(f *core.Fingerprinter, cands []identCandidate, alpha float64) float64 {
	hit := c.keys != nil && c.gen == f.Generation() && slices.Equal(c.relevant, f.Relevant()) && len(c.keys) == 2*len(cands)
	for i := 0; hit && i < len(cands); i++ {
		hit = c.keys[2*i] == cands[i].exp.CrisisID && c.keys[2*i+1] == cands[i].exp.Label
	}
	if hit {
		return c.thr
	}
	var pairs []core.LabeledPair
	for a := 0; a < len(cands); a++ {
		for b := a + 1; b < len(cands); b++ {
			d, err := core.Distance(cands[a].fp, cands[b].fp)
			if err != nil {
				continue
			}
			pairs = append(pairs, core.LabeledPair{Distance: d, Same: cands[a].exp.Label == cands[b].exp.Label})
		}
	}
	thr, err := core.OnlineThreshold(pairs, alpha)
	if err != nil {
		thr = 0 // fewer than two labeled crises: everything is unknown
	}
	c.gen, c.relevant, c.keys, c.thr = f.Generation(), append(c.relevant[:0], f.Relevant()...), c.keys[:0], thr
	for _, cd := range cands {
		c.keys = append(c.keys, cd.exp.CrisisID, cd.exp.Label)
	}
	return thr
}

// Explanations returns the identification audit records of crisis id in
// ident-epoch order, each equal to the Advice.Explanation emitted with it
// (read-only: a record restored from a checkpoint is shared). ok=false for
// an unknown crisis; an empty non-nil slice for a crisis identified before
// thresholds existed. Same single-goroutine contract as Stats.
func (m *Monitor) Explanations(id string) ([]*ident.Explanation, bool) {
	for i := range m.past {
		if m.past[i].id == id {
			return m.explanations(&m.past[i]), true
		}
	}
	return nil, false
}
