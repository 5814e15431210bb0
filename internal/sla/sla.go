// Package sla models key performance indicators (KPIs), their service-level
// agreements, and the crisis-detection rule of the studied datacenter.
//
// The operators of the paper's application designate three KPIs — average
// processing time in the front end, the second stage, and one of the
// post-processing stages — each with an SLA threshold set by business
// policy. A performance crisis is declared when 10% of the machines in the
// datacenter violate any KPI SLA (§4.1). This definition is an input to the
// fingerprinting method, never tuned by it.
package sla

import (
	"errors"
	"fmt"
	"math"

	"dcfp/internal/metrics"
)

// KPI is a key performance indicator: a metric column whose per-machine
// value must stay at or below Threshold.
type KPI struct {
	// Name is a human-readable label ("frontend_latency_ms").
	Name string
	// Metric is the column index of the KPI within the metric catalog.
	Metric int
	// Threshold is the SLA bound: a machine violates this KPI when its
	// sampled value exceeds the threshold.
	Threshold float64
}

// Config couples the KPI set with the datacenter crisis rule.
type Config struct {
	KPIs []KPI
	// CrisisFraction is the fraction of machines that must violate any
	// KPI SLA for a crisis to be declared; the paper's datacenter uses
	// 0.10.
	CrisisFraction float64
}

// Validate checks the configuration against the metric catalog width.
func (c Config) Validate(numMetrics int) error {
	if len(c.KPIs) == 0 {
		return errors.New("sla: no KPIs configured")
	}
	if c.CrisisFraction <= 0 || c.CrisisFraction > 1 {
		return fmt.Errorf("sla: crisis fraction %v out of (0,1]", c.CrisisFraction)
	}
	for i, k := range c.KPIs {
		if k.Metric < 0 || k.Metric >= numMetrics {
			return fmt.Errorf("sla: KPI %d (%s) references metric %d outside catalog of %d", i, k.Name, k.Metric, numMetrics)
		}
	}
	return nil
}

// EpochStatus summarizes SLA compliance of the datacenter for one epoch.
type EpochStatus struct {
	// ViolatingPerKPI[i] is the number of machines violating KPI i.
	ViolatingPerKPI []int
	// ViolatingAny is the number of machines violating at least one KPI.
	ViolatingAny int
	// Machines is the total number of machines evaluated.
	Machines int
	// InCrisis reports whether the crisis rule fired this epoch.
	InCrisis bool
}

// EvaluateMasked applies the KPI SLAs to the sample rows of one epoch
// (values[machine][metric]) whose reporting flag is set, and applies the
// crisis rule. When viol is non-nil (len(values) entries) it also records
// each machine's any-KPI violation flag — the per-machine labels feature
// selection consumes — so one pass serves both. Masked machines contribute
// to no counts (including the crisis-rule denominator) and get
// viol[m] = false. Non-finite KPI samples on reporting machines never count
// as violations — a corrupt +Inf latency is a telemetry fault, not an SLA
// breach. With zero reporting machines there is no evidence either way, so
// InCrisis is false; callers (the monitor) flag such epochs as degraded
// instead. A sample above its threshold violates; one at it complies.
func (c Config) EvaluateMasked(values [][]float64, viol, reporting []bool) (EpochStatus, error) {
	st := EpochStatus{ViolatingPerKPI: make([]int, len(c.KPIs))}
	if len(reporting) != len(values) {
		return st, fmt.Errorf("sla: reporting has %d entries for %d machines", len(reporting), len(values))
	}
	if viol != nil && len(viol) != len(values) {
		return st, fmt.Errorf("sla: viol has %d entries for %d machines", len(viol), len(values))
	}
	for m, row := range values {
		if viol != nil {
			viol[m] = false
		}
		if !reporting[m] {
			continue
		}
		st.Machines++
		any := false
		for i, k := range c.KPIs {
			if k.Metric >= len(row) {
				return st, fmt.Errorf("sla: KPI %s metric %d outside row of %d", k.Name, k.Metric, len(row))
			}
			v := row[k.Metric]
			if !math.IsNaN(v) && !math.IsInf(v, 0) && v > k.Threshold {
				st.ViolatingPerKPI[i]++
				any = true
			}
		}
		if any {
			st.ViolatingAny++
		}
		if viol != nil {
			viol[m] = any
		}
	}
	st.InCrisis = st.Machines > 0 && float64(st.ViolatingAny) >= c.CrisisFraction*float64(st.Machines)
	return st, nil
}

// MergeStatuses combines partial epoch statuses computed over disjoint
// machine subsets (one per worker shard) into the datacenter-wide status,
// re-applying the crisis rule over the summed counts. Counts are sums, so
// the merged status is identical to evaluating all machines in one call,
// regardless of how the machines were split. Zero evaluated machines (every
// shard fully masked) is not a crisis — without the guard the >= comparison
// against 0 would fire vacuously.
func (c Config) MergeStatuses(parts []EpochStatus) EpochStatus {
	st := EpochStatus{ViolatingPerKPI: make([]int, len(c.KPIs))}
	for _, p := range parts {
		for i, v := range p.ViolatingPerKPI {
			st.ViolatingPerKPI[i] += v
		}
		st.ViolatingAny += p.ViolatingAny
		st.Machines += p.Machines
	}
	st.InCrisis = st.Machines > 0 && float64(st.ViolatingAny) >= c.CrisisFraction*float64(st.Machines)
	return st
}

// Episode is a contiguous run of crisis epochs, inclusive on both ends.
type Episode struct {
	Start metrics.Epoch
	End   metrics.Epoch
}

// Len reports the number of epochs the episode spans.
func (e Episode) Len() int { return int(e.End-e.Start) + 1 }

// Contains reports whether epoch t falls inside the episode.
func (e Episode) Contains(t metrics.Epoch) bool { return t >= e.Start && t <= e.End }

// Episodes extracts crisis episodes from a per-epoch in-crisis series.
// Runs separated by at most mergeGap non-crisis epochs are merged (a
// crisis briefly dipping below the 10% rule is still one crisis), and
// episodes shorter than minLen epochs are dropped — the paper defines a
// crisis as a *prolonged* SLA violation.
func Episodes(inCrisis []bool, mergeGap, minLen int) []Episode {
	if mergeGap < 0 {
		mergeGap = 0
	}
	if minLen < 1 {
		minLen = 1
	}
	var raw []Episode
	start := -1
	for e, c := range inCrisis {
		switch {
		case c && start < 0:
			start = e
		case !c && start >= 0:
			raw = append(raw, Episode{metrics.Epoch(start), metrics.Epoch(e - 1)})
			start = -1
		}
	}
	if start >= 0 {
		raw = append(raw, Episode{metrics.Epoch(start), metrics.Epoch(len(inCrisis) - 1)})
	}
	// Merge near-adjacent runs.
	var merged []Episode
	for _, ep := range raw {
		if n := len(merged); n > 0 && int(ep.Start-merged[n-1].End)-1 <= mergeGap {
			merged[n-1].End = ep.End
			continue
		}
		merged = append(merged, ep)
	}
	// Drop too-short episodes.
	out := merged[:0]
	for _, ep := range merged {
		if ep.Len() >= minLen {
			out = append(out, ep)
		}
	}
	return out
}
