package experiment

// The signatures baseline: the paper's adaptation of the signatures method of
// Cohen et al. (SOSP 2005) [6] to the datacenter setting, per the Appendix: metrics are aggregated across servers with quantiles; one model
// is induced per crisis (the paper grants the baseline *optimal* model
// management and selection); regularized logistic regression replaces the
// naïve Bayes classifier for metric selection; and per-metric attribution
// thresholds come from re-fitting the same classifier on each selected
// metric in isolation.
//
// A signature is a vector over metric-quantile columns with entry +1 when
// the column is in the model and attributed (beyond its threshold in the
// crisis direction), -1 when in the model but not attributed, and 0 when
// not in the model. Crises are compared by L2 distance between signatures
// built under the same model.

import (
	"errors"
	"fmt"
	"math"

	"dcfp/internal/core"
	"dcfp/internal/logreg"
	"dcfp/internal/metrics"
	"dcfp/internal/stats"
)

// attribution direction and boundary for one model column.
type columnRule struct {
	col int
	// dir is +1 when larger values indicate the crisis, -1 otherwise.
	dir float64
	// boundary is the decision threshold on the raw column value.
	boundary float64
}

// signatureModel is the per-crisis classifier the signatures method
// maintains.
type signatureModel struct {
	rules []columnRule
	width int
}

// buildSignatureModel induces the model of one crisis: logistic regression
// with L1 regularization over quantile rows (crisis epochs vs. preceding
// normal epochs), keeping the top modelColumns columns (the attribution
// vocabulary), each with a single-feature threshold.
func buildSignatureModel(track *metrics.QuantileTrack, crisisEpochs, normalEpochs []metrics.Epoch, modelColumns int) (*signatureModel, error) {
	if track == nil {
		return nil, errors.New("signatures: nil track")
	}
	if modelColumns <= 0 {
		return nil, fmt.Errorf("signatures: ModelColumns %d must be positive", modelColumns)
	}
	if len(crisisEpochs) == 0 || len(normalEpochs) == 0 {
		return nil, errors.New("signatures: need both crisis and normal epochs")
	}
	var x [][]float64
	var y []int
	add := func(eps []metrics.Epoch, label int) error {
		for _, e := range eps {
			row, err := track.EpochRow(e)
			if err != nil {
				return fmt.Errorf("signatures: epoch %d: %w", e, err)
			}
			x = append(x, append([]float64(nil), row...))
			y = append(y, label)
		}
		return nil
	}
	if err := add(crisisEpochs, 1); err != nil {
		return nil, err
	}
	if err := add(normalEpochs, 0); err != nil {
		return nil, err
	}

	cols, _, err := logreg.SelectTopK(x, y, modelColumns)
	if err != nil {
		return nil, fmt.Errorf("signatures: model induction: %w", err)
	}

	m := &signatureModel{width: track.NumMetrics() * metrics.NumQuantiles}
	for _, col := range cols {
		rule, err := fitColumnRule(x, y, col)
		if err != nil {
			continue // degenerate column; drop it from the model
		}
		m.rules = append(m.rules, rule)
	}
	if len(m.rules) == 0 {
		return nil, errors.New("signatures: no usable columns survived threshold fitting")
	}
	return m, nil
}

// fitColumnRule refits the classifier on a single column to obtain the
// attribution threshold: the decision boundary -b/w and the direction
// sign(w).
func fitColumnRule(x [][]float64, y []int, col int) (columnRule, error) {
	single := make([][]float64, len(x))
	for i := range x {
		single[i] = []float64{x[i][col]}
	}
	mod, err := logreg.Train(single, y, logreg.DefaultOptions(0.001))
	if err != nil {
		return columnRule{}, err
	}
	w := mod.Weights[0]
	if w == 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return columnRule{}, errors.New("signatures: flat column")
	}
	return columnRule{col: col, dir: math.Copysign(1, w), boundary: -mod.Bias / w}, nil
}

// epochSignature maps one raw quantile row to the {-1, 0, +1} signature
// under this model: +1 attributed, -1 in-model but unattributed, 0 out of
// vocabulary.
func (m *signatureModel) epochSignature(row []float64) ([]float64, error) {
	if len(row) != m.width {
		return nil, fmt.Errorf("signatures: row width %d, want %d", len(row), m.width)
	}
	sig := make([]float64, m.width)
	for _, r := range m.rules {
		v := row[r.col]
		if r.dir*(v-r.boundary) > 0 {
			sig[r.col] = 1
		} else {
			sig[r.col] = -1
		}
	}
	return sig, nil
}

// crisisSignature averages epoch signatures over the summary window
// anchored at the detected start, truncated at upTo.
func (m *signatureModel) crisisSignature(track *metrics.QuantileTrack, detectedStart metrics.Epoch, r core.SummaryRange, upTo metrics.Epoch) ([]float64, error) {
	lo := detectedStart - metrics.Epoch(r.Before)
	hi := detectedStart + metrics.Epoch(r.After)
	if upTo < hi {
		hi = upTo
	}
	var sigs [][]float64
	for e := lo; e <= hi; e++ {
		if e < 0 || int(e) >= track.NumEpochs() {
			continue
		}
		row, err := track.EpochRow(e)
		if err != nil {
			return nil, err
		}
		s, err := m.epochSignature(row)
		if err != nil {
			return nil, err
		}
		sigs = append(sigs, s)
	}
	if len(sigs) == 0 {
		return nil, fmt.Errorf("signatures: summary window [%d,%d] has no epochs", lo, hi)
	}
	return stats.MeanVector(sigs)
}

// distance compares two crises under this model: the L2 distance between
// their signatures. The signatures method identifies a new crisis against
// past crisis c by computing both signatures under c's model.
func (m *signatureModel) distance(track *metrics.QuantileTrack, startA, startB metrics.Epoch, r core.SummaryRange, upToA, upToB metrics.Epoch) (float64, error) {
	a, err := m.crisisSignature(track, startA, r, upToA)
	if err != nil {
		return 0, err
	}
	b, err := m.crisisSignature(track, startB, r, upToB)
	if err != nil {
		return 0, err
	}
	return stats.L2Distance(a, b)
}
