package monitor

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"dcfp/internal/ident"
	"dcfp/internal/metrics"
	"dcfp/internal/online"
	"dcfp/internal/sla"
	"dcfp/internal/telemetry"
)

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
// The filter keeps the epoch as it goes, by metric column, and splits the
// metric columns over Config.Workers goroutines when the epoch warrants it;
// see the Workers documentation for the equivalence guarantee.
//
// When a telemetry registry is attached, each pipeline stage (quantile
// aggregation, SLA evaluation, threshold refresh, selection,
// identification) is timed into dcfp_monitor_stage_seconds and the whole
// call into dcfp_observe_epoch_seconds; with a nil registry no clocks are
// read at all.
func (m *Monitor) ObserveEpoch(samples [][]float64) (*EpochReport, error) {
	tr := m.cfg.Tracer.StartTrace("observe_epoch")
	defer tr.End()
	return m.observe(tr, len(samples), samples, nil)
}

// observe is the one epoch path of both ingestion modes: the rows delivered
// in process, or (rows nil) a fleet epoch's shard partials over machines. It
// ingests the epoch into the aggregator and the retained samples, summarizes
// it, evaluates the SLA rule and hands over to step.
func (m *Monitor) observe(tr *telemetry.Trace, machines int, rows [][]float64, parts []ShardPartial) (rep *EpochReport, err error) {
	var t0, ts time.Time
	if m.tel != nil {
		t0 = time.Now()
		ts = t0
	}
	fleet := rows == nil
	sp := tr.StartSpan("ingest")
	var covered []coveredRange
	var slots int
	if fleet {
		covered, slots, err = m.validateParts(machines, parts)
	} else {
		slots, err = m.validateRows(rows)
	}
	if err != nil {
		return nil, err
	}
	m.noteMachines(machines)
	sp.SetAttr("machines", int64(machines))
	sp.SetAttr("shards", int64(max(len(parts), 1)))
	sp.End()

	// From here on the aggregator holds this epoch's values. Whatever fails
	// before summarize has drained it must not leak them into the next epoch.
	defer func() {
		if err != nil {
			m.agg.Reset()
		}
	}()
	workers := m.workers(machines)
	m.cur.Reset(slots, m.cfg.Catalog.Len())
	var dropped int
	viol, reporting := m.scratchMasks(machines)
	if fleet {
		dropped, err = m.merge(tr, workers, covered, parts)
	} else {
		// The filter keeps the rows transposed as the retained epoch; its
		// only fan-out is the aggregator's split of the metric columns.
		sp = tr.StartSpan("filter")
		dropped, err = m.agg.ObserveBatchRetained(workers, rows, reporting, m.cur.X, m.cur.NonFinite())
		sp.SetAttr("values_dropped", int64(dropped))
		sp.End()
	}
	if err != nil {
		return nil, err
	}

	sp = tr.StartSpan("summarize")
	summary := slices.Grow(m.spareSummary[:0], m.cfg.Catalog.Len())[:m.cfg.Catalog.Len()]
	gaps, err := m.agg.SummarizeInto(workers, summary, m.lastSummary)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("metric_gaps", int64(gaps))
	sp.End()
	ts = m.span(stageQuantile, ts)

	sp = tr.StartSpan("sla")
	var status sla.EpochStatus
	if fleet {
		status = m.mergeStatuses(parts)
	} else {
		if status, err = m.cfg.SLA.EvaluateMasked(rows, viol, reporting); err != nil {
			return nil, err
		}
		k := 0 // each retained slot is a delivered row
		for i, row := range rows {
			if row != nil {
				m.cur.Live()[k], m.cur.Viol[k] = reporting[i], viol[i]
				k++
			}
		}
	}
	sp.End()
	m.span(stageSLA, ts)
	return m.step(tr, t0, summary, status, dropped, gaps, workers)
}

// validateRows checks the rows against the catalog and returns how many were
// delivered: one retained slot each.
func (m *Monitor) validateRows(rows [][]float64) (int, error) {
	if len(rows) == 0 {
		return 0, errors.New("monitor: no machine samples")
	}
	nm, delivered := m.cfg.Catalog.Len(), 0
	for _, row := range rows {
		if row == nil {
			continue
		}
		if len(row) != nm {
			return 0, fmt.Errorf("monitor: sample row width %d, want %d", len(row), nm)
		}
		delivered++
	}
	return delivered, nil
}

// step runs everything downstream of the SLA rule: coverage accounting and
// sanitization of the retained epoch, the forecast stage, then the pipeline
// state's Step, whose facts it publishes as spans, series and events.
func (m *Monitor) step(tr *telemetry.Trace, t0 time.Time, summary [][3]float64, status sla.EpochStatus, dropped, gaps, workers int) (*EpochReport, error) {
	e := m.Epoch()
	reportCount := m.cur.Finish(summary)
	coverage := 0.0
	if m.st.Expected > 0 {
		coverage = float64(reportCount) / float64(m.st.Expected)
	}
	degraded := reportCount == 0 || (m.cfg.MinCoverage > 0 && coverage < m.cfg.MinCoverage)

	tr.SetAttr("epoch", int64(e))
	tr.SetAttr("machines_reporting", int64(reportCount))
	tr.SetAttr("workers", int64(workers))
	if degraded {
		tr.SetAttr("degraded", 1)
	}

	// Early-warning forecast stage: runs on this epoch's status, summary
	// and sanitized rows, BEFORE the crisis state machine so the detection
	// can be scored against the warning episode it closes. Degraded epochs
	// carry the last snapshot forward — too few machines reported to move
	// the risk estimate.
	var fc ForecastSnapshot
	if m.fc != nil {
		if degraded {
			m.fc.Last.Epoch = e
			m.fc.Last.Degraded = true
			m.fc.Last.DetectionLead = 0
			m.fc.Last.FalseAlarm = false
			fc = m.fc.Last
		} else {
			var ts time.Time
			if m.tel != nil {
				ts = time.Now()
			}
			sp := tr.StartSpan("forecast")
			fc = m.forecastObserve(e, status, summary, reportCount, m.st.Active() != nil)
			sp.SetAttr("risk_permille", int64(fc.Risk*1000))
			sp.End()
			m.span(stageForecast, ts)
		}
	}

	m.hook = stepSpans{tel: m.tel, tr: tr, open: m.hook.open[:0]}
	res, err := m.st.Step(summary, status, degraded, &m.cur, &m.hook)
	if err != nil {
		return nil, err
	}
	m.lastSummary, m.spareSummary = summary, m.lastSummary
	m.st.LastCoverage = coverage
	if degraded {
		m.degradedCount++
	}
	rep := res.Report
	rep.Coverage, rep.Forecast = coverage, fc
	if res.Ended {
		m.publishEnd(e, res)
	}
	if res.Detected {
		if m.tel != nil {
			m.tel.crisesDetected.Inc()
		}
		m.events.CrisisDetected(int64(e), res.Crisis.ID())
		// Close the warning episode and score its lead. The snapshot's
		// DetectionLead is what cmd/dcfpd feeds into
		// Scoreboard.RecordForecast as a negative TTI.
		if lead, hit := m.fc.resolveDetection(e); hit {
			rep.Forecast.DetectionLead = lead
			m.fc.Last.DetectionLead = lead
			m.events.Event("forecast.hit", "epoch", int64(e), "lead_epochs", lead, "crisis", res.Crisis.ID())
		}
	}
	if adv := rep.Advice; adv != nil {
		m.hook.match.SetAttr("candidates", int64(adv.Candidates))
		if m.fc != nil {
			fs := rep.Forecast
			adv.Forecast = &fs
		}
		m.recordAdvice(adv)
	}
	if m.tel != nil {
		m.tel.cacheHits.Add(res.Hits)
		m.tel.cacheMiss.Add(res.Misses)
		m.tel.epochs.Inc()
		m.tel.workers.SetInt(int64(workers))
		m.tel.crisisActive.SetInt(boolToGauge(rep.CrisisActive))
		if m.st.Thresholds != nil {
			m.tel.thresholdAge.SetInt(int64(e - m.st.LastThresh))
		}
		m.tel.ingestDropped.Add(uint64(dropped))
		if nr := m.st.Expected - reportCount; nr > 0 {
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

// publishEnd publishes a crisis that closed at epoch e: its selection's
// span attributes and failure, the store size, and the end event.
func (m *Monitor) publishEnd(e metrics.Epoch, res online.Result) {
	p, sel := res.Crisis, res.Selection
	if res.Stored {
		if sel.Err != nil {
			// The crisis stays stored but the fingerprinter skips it: say so.
			m.events.Event("selection.failed", "epoch", int64(e), "crisis", p.ID(), "rows", sel.Rows, "error", sel.Err.Error())
		}
		sp := m.hook.selection
		sp.SetAttr("rows", int64(sel.Rows))
		sp.SetAttr("positives", int64(sel.Stats.Positives))
		sp.SetAttr("lambda_steps", int64(sel.Stats.Steps))
		sp.SetAttr("iters_total", int64(sel.Stats.Iters))
		sp.SetAttr("certified", int64(sel.Stats.Certified))
		sp.SetAttr("exact_checks", int64(sel.Stats.ExactChecks))
		sp.SetAttr("screened", int64(sel.Stats.Screened))
		sp.SetAttr("selected", int64(sel.Selected))
		if m.tel != nil {
			n, _ := m.KnownCrises()
			m.tel.storeSize.SetInt(int64(n))
		}
	}
	m.events.CrisisEnded(int64(e), p.ID(), int(e-p.State.Start), res.Stored)
}

// stepSpans is the online.Hook the monitor hands the pipeline: each stage
// becomes a span of the epoch's trace and, with telemetry, the outermost
// stages (which never nest in one another) a stage timing. It keeps the
// latest selection and match spans for the attributes the step's facts carry.
type stepSpans struct {
	tel              *monitorMetrics
	tr               *telemetry.Trace
	open             []*telemetry.Span
	t0               time.Time
	selection, match *telemetry.Span
}

func (h *stepSpans) Begin(stage string) {
	if len(h.open) == 0 && h.tel != nil {
		h.t0 = time.Now()
	}
	sp := h.tr.StartSpan(stage)
	switch stage {
	case "selection":
		h.selection = sp
	case "match":
		h.match = sp
	}
	h.open = append(h.open, sp)
}

func (h *stepSpans) End(stage string) {
	h.open[len(h.open)-1].End()
	if h.open = h.open[:len(h.open)-1]; len(h.open) == 0 && h.tel != nil {
		h.tel.stages[stage].ObserveSince(h.t0)
	}
}

// scratchMasks returns the per-epoch violation and liveness masks, reusing
// the monitor's scratch buffers so the steady-state path allocates nothing.
// The contents are stale: the pipeline writes every entry before reading
// any. Both masks are overwritten by the next epoch.
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
	w = cmp.Or(w, runtime.GOMAXPROCS(0))
	nm := m.cfg.Catalog.Len()
	return max(1, min(w, (nm+minMetricsPerWorker-1)/minMetricsPerWorker))
}

// noteMachines learns the fleet width as the coverage denominator when the
// configuration does not fix one.
func (m *Monitor) noteMachines(machines int) {
	if m.cfg.ExpectedMachines == 0 && machines > m.st.Expected {
		m.st.Expected = machines
	}
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

// recordAdvice feeds one advice into counters and events.
func (m *Monitor) recordAdvice(adv *Advice) {
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
