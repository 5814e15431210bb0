package monitor

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dcfp/internal/sla"
	"dcfp/internal/telemetry"
)

// ShardPartial is one contiguous machine range's contribution to an epoch:
// the raw rows, the per-machine violation and liveness masks, and the range's
// partially evaluated SLA status. Quantile state is not part of it: the rows
// are filtered into the monitor's own aggregator wherever they were
// collected. Every ingestion mode is a list of these: ObserveEpoch builds one
// covering the whole epoch in process, the fleet coordinator decodes them
// from shard frames.
type ShardPartial struct {
	// Lo is the global machine index of Rows[0]; the partial covers
	// machines [Lo, Lo+len(Rows)).
	Lo int
	// Rows holds the range's raw per-machine samples (nil row = the
	// machine delivered nothing). Cells may still be NaN/Inf: retained-row
	// sanitization substitutes the fleet-wide median, which only exists
	// after the merge, so it happens in the monitor rather than on the shard.
	Rows [][]float64
	// Viol and Reporting are the per-machine any-KPI violation and
	// liveness masks computed with sla.Config.EvaluateMasked.
	Viol      []bool
	Reporting []bool
	// Status is the partial SLA status over the machine range.
	Status sla.EpochStatus
	// Dropped counts the range's non-finite cells. A remote shard counts
	// them before it nils the rows of non-reporting machines, so the monitor
	// takes its number instead of recounting what arrived.
	Dropped int
}

// ObserveAggregated ingests one epoch assembled from per-shard partials —
// the coordinator half of two-tier fleet aggregation. It is ObserveEpoch
// with the masks and SLA statuses already computed elsewhere: the partials'
// rows go through the same filter into the monitor's aggregator and
// everything else runs through the same pipeline, so the EpochReport stream
// is byte-identical to feeding the same fleet rows to ObserveEpoch on a
// single node.
//
// machines is the full fleet width. Machine indexes not covered by any
// partial — a dead or late shard the caller did not synthesize a partial
// for — count as non-reporting, so missing shards surface as reduced
// coverage and, below Config.MinCoverage, as a degraded (frozen) epoch.
//
// The pipeline spans are recorded into tr when the caller owns a trace (the
// coordinator passes its merge_epoch trace, so shard-grafted spans and the
// merge pipeline land in one distributed trace, and Ends it); with a nil tr
// the monitor opens an observe_aggregated trace of its own.
func (m *Monitor) ObserveAggregated(machines int, parts []ShardPartial, tr *telemetry.Trace) (*EpochReport, error) {
	if tr == nil {
		tr = m.cfg.Tracer.StartTrace("observe_aggregated")
		defer tr.End()
	}
	return m.observeParts(tr, machines, parts, false)
}

// observeParts is the one ingestion pipeline: validate the partials, filter
// their rows into the aggregator one partial after another (a local partial
// gets its mask and drop count from it, remote ones keep what the shard
// shipped), summarize, combine the SLA statuses, scatter rows and masks into
// global machine order, and hand over to finishEpoch. ObserveEpoch is the
// one-partial case and the fleet the remote case; in both the only fan-out is
// the aggregator's split of the metric columns over the resolved workers.
func (m *Monitor) observeParts(tr *telemetry.Trace, machines int, parts []ShardPartial, local bool) (rep *EpochReport, err error) {
	var t0, ts time.Time
	if m.tel != nil {
		t0 = time.Now()
		ts = t0
	}
	sp := tr.StartSpan("ingest")
	covered, err := m.validateParts(machines, parts)
	if err != nil {
		return nil, err
	}
	if m.cfg.ExpectedMachines == 0 && machines > m.expected {
		m.expected = machines
	}
	sp.SetAttr("machines", int64(machines))
	sp.SetAttr("shards", int64(len(parts)))
	sp.End()

	// From here on the aggregator holds this epoch's values. Whatever fails
	// before summarize has drained it must not leak them into the next epoch.
	defer func() {
		if err != nil {
			m.agg.Reset()
		}
	}()
	workers := m.workers(machines)
	if local {
		sp = tr.StartSpan("filter")
	} else {
		sp = tr.StartSpan("merge")
		sp.SetAttr("workers", int64(workers))
	}
	dropped := 0
	for i := range parts {
		p := &parts[i]
		if local {
			p.Dropped, err = m.agg.ObserveBatchFiltered(workers, p.Rows, p.Reporting)
		} else {
			_, err = m.agg.ObserveBatchFiltered(workers, p.Rows, nil)
		}
		if err != nil {
			return nil, err
		}
		dropped += p.Dropped
	}
	sp.SetAttr("values_dropped", int64(dropped))
	sp.End()

	sp = tr.StartSpan("summarize")
	summary, gaps, err := m.agg.SummarizeLenientParallel(workers, m.lastSummary)
	if err != nil {
		return nil, err
	}
	if err = m.track.AppendEpoch(summary); err != nil {
		return nil, err
	}
	sp.SetAttr("metric_gaps", int64(gaps))
	sp.End()
	ts = m.span(stageQuantile, ts)

	sp = tr.StartSpan("sla")
	if local {
		p := &parts[0]
		if p.Status, err = m.cfg.SLA.EvaluateMasked(p.Rows, p.Viol, p.Reporting); err != nil {
			return nil, err
		}
	}
	statuses := m.statusBuf[:0]
	for i := range parts {
		statuses = append(statuses, parts[i].Status)
	}
	m.statusBuf = statuses
	status := m.cfg.SLA.MergeStatuses(statuses)
	sp.End()
	ts = m.span(stageSLA, ts)

	// Scatter into global machine order. The retained copies live in one
	// pooled matrix per epoch — its row views are the copies slice (nil =
	// non-reporting) — and the masks are the monitor's scratch, so a
	// steady-state epoch allocates none of them. Local partials' masks
	// already alias the scratch, which makes their mask copy a no-op.
	// Machines no partial covers (a dead shard nobody synthesized) are
	// non-reporting.
	mat := m.pool.Get(machines, m.cfg.Catalog.Len())
	copies := mat.RowViews()
	viol, reporting := m.scratchMasks(machines)
	missing := func(lo, hi int) {
		for g := lo; g < hi; g++ {
			viol[g], reporting[g] = false, false
			mat.MarkMissing(g)
		}
	}
	next := 0
	for _, r := range covered {
		missing(next, r[0])
		next = r[1]
	}
	missing(next, machines)
	for i := range parts {
		p := &parts[i]
		copy(viol[p.Lo:], p.Viol)
		copy(reporting[p.Lo:], p.Reporting)
		for k, row := range p.Rows {
			if p.Reporting[k] {
				copy(copies[p.Lo+k], row)
			} else {
				mat.MarkMissing(p.Lo + k)
			}
		}
	}

	rep, retained, err := m.finishEpoch(tr, t0, ts, mat, copies, viol, reporting, status, summary, dropped, gaps, workers)
	if !retained {
		m.pool.Put(mat)
	}
	return rep, err
}

// validateParts checks the partials against the fleet width and the catalog
// and returns the non-empty machine ranges they cover, sorted and disjoint.
func (m *Monitor) validateParts(machines int, parts []ShardPartial) ([][2]int, error) {
	if machines <= 0 {
		return nil, errors.New("monitor: no machine samples")
	}
	if len(parts) == 0 {
		return nil, errors.New("monitor: no shard partials")
	}
	nm := m.cfg.Catalog.Len()
	covered := m.coveredBuf[:0]
	for i := range parts {
		p := &parts[i]
		if len(p.Rows) != len(p.Viol) || len(p.Rows) != len(p.Reporting) {
			return nil, fmt.Errorf("monitor: partial %d: rows/viol/reporting lengths %d/%d/%d disagree",
				i, len(p.Rows), len(p.Viol), len(p.Reporting))
		}
		if p.Lo < 0 || p.Lo+len(p.Rows) > machines {
			return nil, fmt.Errorf("monitor: partial %d covers [%d,%d) outside fleet of %d machines",
				i, p.Lo, p.Lo+len(p.Rows), machines)
		}
		for _, row := range p.Rows {
			if row != nil && len(row) != nm {
				return nil, fmt.Errorf("monitor: sample row width %d, want %d", len(row), nm)
			}
		}
		if len(p.Rows) > 0 {
			covered = append(covered, [2]int{p.Lo, p.Lo + len(p.Rows)})
		}
	}
	m.coveredBuf = covered
	slices.SortFunc(covered, func(a, b [2]int) int { return a[0] - b[0] })
	for i := 1; i < len(covered); i++ {
		if covered[i][0] < covered[i-1][1] {
			return nil, fmt.Errorf("monitor: shard partials overlap at machine %d", covered[i][0])
		}
	}
	return covered, nil
}
