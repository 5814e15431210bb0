package dcsim

import (
	"fmt"

	"dcfp/internal/crisis"
	"dcfp/internal/metrics"
	"dcfp/internal/sla"
)

// DetectedCrisis pairs an SLA-detected episode with its ground-truth
// injected instance. The identification pipeline works from the episode
// (what the operators observe); the instance provides the evaluation label.
type DetectedCrisis struct {
	Episode  sla.Episode
	Instance crisis.Instance
}

// IsNormal reports whether epoch e was crisis-free per the SLA rule — the
// predicate used to exclude anomalous intervals from threshold windows.
func (t *Trace) IsNormal(e metrics.Epoch) bool {
	if e < 0 || int(e) >= len(t.InCrisis) {
		return true
	}
	return !t.InCrisis[e]
}

// InstanceForEpisode returns the injected instance overlapping the detected
// episode, if any.
func (t *Trace) InstanceForEpisode(ep sla.Episode) (crisis.Instance, bool) {
	for _, in := range t.Instances {
		if ep.Start <= in.End() && ep.End >= in.Start {
			return in, true
		}
	}
	return crisis.Instance{}, false
}

// DetectedCrises pairs every detected episode with its ground-truth
// instance, in chronological order. Episodes with no matching instance
// (spurious detections) are skipped.
func (t *Trace) DetectedCrises() []DetectedCrisis {
	var out []DetectedCrisis
	for _, ep := range t.Episodes {
		if in, ok := t.InstanceForEpisode(ep); ok {
			out = append(out, DetectedCrisis{Episode: ep, Instance: in})
		}
	}
	return out
}

// LabeledCrises returns the detected crises of the labeled study period.
func (t *Trace) LabeledCrises() []DetectedCrisis {
	var out []DetectedCrisis
	for _, dc := range t.DetectedCrises() {
		if dc.Instance.Labeled {
			out = append(out, dc)
		}
	}
	return out
}

// UnlabeledCrises returns the detected crises of the unlabeled period.
func (t *Trace) UnlabeledCrises() []DetectedCrisis {
	var out []DetectedCrisis
	for _, dc := range t.DetectedCrises() {
		if !dc.Instance.Labeled {
			out = append(out, dc)
		}
	}
	return out
}

// FSSamples gathers the machine-level feature-selection samples surrounding
// one detected crisis (§3.4): for every retained epoch within pad epochs of
// the episode, each retained machine contributes its metric row X and label
// Y = 1 if the machine was violating a KPI SLA at that epoch, else 0.
func (t *Trace) FSSamples(ep sla.Episode, pad int) (x [][]float64, y []int, err error) {
	if pad < 0 {
		pad = 0
	}
	for e := ep.Start - metrics.Epoch(pad); e <= ep.End+metrics.Epoch(pad); e++ {
		fse, ok := t.fs[e]
		if !ok {
			continue
		}
		for i, row := range fse.X {
			x = append(x, row)
			if fse.Violating[i] {
				y = append(y, 1)
			} else {
				y = append(y, 0)
			}
		}
	}
	if len(x) == 0 {
		return nil, nil, fmt.Errorf("dcsim: no feature-selection data around episode %d..%d", ep.Start, ep.End)
	}
	return x, y, nil
}
