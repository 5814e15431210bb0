package experiment

// The two simple comparison methods of §4.2:
//
//   - "KPI": a fingerprint containing, per KPI, the number of machines
//     violating that KPI's SLA — exactly the signal the operators already
//     watch for detection. Its weakness is the point of the paper:
//     different crises overlap heavily on the KPIs they violate.
//   - "Fingerprints (all metrics)": the paper's fingerprint construction
//     without relevant-metric selection. That baseline needs no code of its
//     own — build a core.Fingerprinter with core.AllMetrics.

import (
	"errors"
	"fmt"

	"dcfp/internal/core"
	"dcfp/internal/metrics"
	"dcfp/internal/sla"
	"dcfp/internal/stats"
)

// kpiFingerprinter builds crisis fingerprints from per-KPI violation counts
// only.
type kpiFingerprinter struct {
	status []sla.EpochStatus
}

// newKPIFingerprinter wraps a trace's per-epoch SLA status series.
func newKPIFingerprinter(status []sla.EpochStatus) (*kpiFingerprinter, error) {
	if len(status) == 0 {
		return nil, errors.New("baselines: empty status series")
	}
	return &kpiFingerprinter{status: status}, nil
}

// crisisFingerprint averages, over the summary window anchored at the
// detected start, the fraction of machines violating each KPI.
func (k *kpiFingerprinter) crisisFingerprint(detectedStart metrics.Epoch, r core.SummaryRange) ([]float64, error) {
	return k.crisisFingerprintUpTo(detectedStart, r, detectedStart+metrics.Epoch(r.After))
}

// crisisFingerprintUpTo is crisisFingerprint truncated at upTo, for online
// identification during the first crisis epochs.
func (k *kpiFingerprinter) crisisFingerprintUpTo(detectedStart metrics.Epoch, r core.SummaryRange, upTo metrics.Epoch) ([]float64, error) {
	lo := detectedStart - metrics.Epoch(r.Before)
	hi := detectedStart + metrics.Epoch(r.After)
	if upTo < hi {
		hi = upTo
	}
	var rows [][]float64
	for e := lo; e <= hi; e++ {
		if e < 0 || int(e) >= len(k.status) {
			continue
		}
		st := k.status[e]
		if st.Machines == 0 {
			return nil, fmt.Errorf("baselines: epoch %d has no machines", e)
		}
		row := make([]float64, len(st.ViolatingPerKPI))
		for i, n := range st.ViolatingPerKPI {
			row[i] = float64(n) / float64(st.Machines)
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("baselines: summary window [%d,%d] out of trace", lo, hi)
	}
	return stats.MeanVector(rows)
}
