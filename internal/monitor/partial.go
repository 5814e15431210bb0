package monitor

import (
	"errors"
	"fmt"
	"slices"

	"dcfp/internal/sla"
	"dcfp/internal/telemetry"
)

// ShardPartial is one contiguous machine range's contribution to an epoch as
// a fleet shard ships it: the reporting machines' raw samples by metric
// column, the per-machine violation and liveness masks, and the range's
// partially evaluated SLA status. Quantile state is not part of it: the
// columns are filtered into the monitor's own aggregator. The fleet
// coordinator decodes these from shard frames.
type ShardPartial struct {
	// Lo is the global machine index of the range's first machine; the
	// partial covers machines [Lo, Lo+len(Reporting)).
	Lo int
	// Cols holds the reporting machines' samples metric-major: with n the
	// number of reporting machines, metric m's n values, in machine order,
	// are Cols[m*n:(m+1)*n], so len(Cols) is n × the catalog width. Cells may
	// still be NaN/Inf: retained-sample sanitization substitutes the
	// fleet-wide median, which only exists after the merge, so it happens in
	// the monitor rather than on the shard.
	Cols []float64
	// Viol and Reporting are the per-machine any-KPI violation and
	// liveness masks computed with sla.Config.EvaluateMasked.
	Viol      []bool
	Reporting []bool
	// Status is the partial SLA status over the machine range.
	Status sla.EpochStatus
	// Dropped counts the range's non-finite cells as the shard saw them,
	// including those of the machines it did not ship. It feeds the ingest
	// telemetry only: sanitization goes by the cells the monitor's own column
	// pass found.
	Dropped int
}

// ObserveAggregated ingests one epoch assembled from per-shard partials —
// the coordinator half of two-tier fleet aggregation. It is ObserveEpoch
// with the masks and SLA statuses already computed elsewhere, filtering each
// partial's columns into the monitor's aggregator, so the EpochReport stream
// is byte-identical to feeding the same fleet rows to ObserveEpoch.
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
	return m.observe(tr, machines, nil, parts)
}

// merge absorbs the partials' columns into the aggregator and the retained
// epoch, which holds the reporting machines in machine order: a partial's
// slots start where the ranges before it end. Each column is absorbed in one
// pass that inserts its finite keys and writes its retained copy; the
// estimators take the partials in the order given.
func (m *Monitor) merge(tr *telemetry.Trace, workers int, covered []coveredRange, parts []ShardPartial) (int, error) {
	sp := tr.StartSpan("merge")
	sp.SetAttr("workers", int64(workers))
	srcs, at := m.srcBuf[:0], m.atBuf[:0]
	for i := range parts {
		srcs = append(srcs, parts[i].Cols)
		at = append(at, 0)
	}
	next := 0
	for _, c := range covered {
		p := &parts[c.part]
		at[c.part] = next
		for k, r := range p.Reporting {
			if r {
				m.cur.Viol[next] = p.Viol[k]
				next++
			}
		}
	}
	m.srcBuf, m.atBuf = srcs, at
	if err := m.agg.ObserveColumns(workers, srcs, at, m.cur.X, m.cur.NonFinite()); err != nil {
		return 0, err
	}
	live := m.cur.Live()
	for i := range live {
		live[i] = true
	}
	dropped := 0
	for i := range parts {
		dropped += parts[i].Dropped
	}
	sp.SetAttr("values_dropped", int64(dropped))
	sp.End()
	return dropped, nil
}

// mergeStatuses combines the partials' SLA statuses.
func (m *Monitor) mergeStatuses(parts []ShardPartial) sla.EpochStatus {
	statuses := m.statusBuf[:0]
	for i := range parts {
		statuses = append(statuses, parts[i].Status)
	}
	m.statusBuf = statuses
	return m.cfg.SLA.MergeStatuses(statuses)
}

// coveredRange is one non-empty partial's machine range.
type coveredRange struct{ lo, hi, part int }

// validateParts checks the partials against the fleet width and the catalog
// — every reporting machine must have shipped its cells, and no others — and
// returns the non-empty machine ranges they cover, sorted and disjoint, with
// the number of reporting machines over all of them.
func (m *Monitor) validateParts(machines int, parts []ShardPartial) ([]coveredRange, int, error) {
	if machines <= 0 {
		return nil, 0, errors.New("monitor: no machine samples")
	}
	if len(parts) == 0 {
		return nil, 0, errors.New("monitor: no shard partials")
	}
	nm := m.cfg.Catalog.Len()
	covered := m.coveredBuf[:0]
	slots := 0
	for i := range parts {
		p := &parts[i]
		n := len(p.Reporting)
		if len(p.Viol) != n {
			return nil, 0, fmt.Errorf("monitor: partial %d: viol/reporting lengths %d/%d disagree", i, len(p.Viol), n)
		}
		if p.Lo < 0 || p.Lo+n > machines {
			return nil, 0, fmt.Errorf("monitor: partial %d covers [%d,%d) outside fleet of %d machines",
				i, p.Lo, p.Lo+n, machines)
		}
		reporting := 0
		for _, r := range p.Reporting {
			if r {
				reporting++
			}
		}
		if len(p.Cols) != reporting*nm {
			return nil, 0, fmt.Errorf("monitor: partial %d ships %d cells for %d reporting machines × %d metrics",
				i, len(p.Cols), reporting, nm)
		}
		slots += reporting
		if n > 0 {
			covered = append(covered, coveredRange{p.Lo, p.Lo + n, i})
		}
	}
	m.coveredBuf = covered
	slices.SortFunc(covered, func(a, b coveredRange) int { return a.lo - b.lo })
	for i := 1; i < len(covered); i++ {
		if covered[i].lo < covered[i-1].hi {
			return nil, 0, fmt.Errorf("monitor: shard partials overlap at machine %d", covered[i].lo)
		}
	}
	return covered, slots, nil
}
