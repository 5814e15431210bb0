// Package forecast implements the first future-work direction of the
// paper's §7: finding early signs of crises in fingerprints so they can be
// forecasted before the SLA rule fires. The paper reports encouraging
// initial results, "especially in regards to forecasting crises of type B"
// (overloaded back-end), whose backlog builds visibly before the KPI
// violations cross the 10%-of-machines detection threshold.
//
// The forecaster is a nearest-centroid detector in fingerprint space: it
// learns the centroid of pre-detection epoch fingerprints of past crises of
// one type, and raises a warning whenever a live epoch's fingerprint is
// closer to that centroid than to the all-normal state. It is deliberately
// simple — the value is in the representation (fingerprints), not the
// classifier, which is exactly the paper's argument.
package forecast

import (
	"errors"
	"fmt"

	"dcfp/internal/core"
	"dcfp/internal/metrics"
	"dcfp/internal/stats"
)

// Config shapes forecaster training.
type Config struct {
	// Lead is how many pre-detection epochs of each training crisis feed
	// the centroid (default 4 = one hour).
	Lead int
	// MinCrises is the minimum number of training crises (default 3).
	MinCrises int
	// Margin biases the nearest-centroid rule: a warning requires
	// d(centroid) < Margin · d(normal). Margin 1 is the plain rule;
	// smaller values trade warning time for fewer false alarms.
	Margin float64
	// MinCentroidNorm rejects training when the pre-detection centroid
	// is indistinguishable from normal noise (roughly 4% of cells are
	// out-of-band even in normal operation by the 2/98 design, so a tiny
	// non-zero norm is expected). Default 0.3.
	MinCentroidNorm float64
}

// DefaultConfig returns the settings used in the paper-style evaluation.
func DefaultConfig() Config { return Config{Lead: 4, MinCrises: 3, Margin: 1, MinCentroidNorm: 0.3} }

func (c Config) validate() error {
	if c.Lead < 1 {
		return fmt.Errorf("forecast: lead %d must be positive", c.Lead)
	}
	if c.MinCrises < 1 {
		return fmt.Errorf("forecast: MinCrises %d must be positive", c.MinCrises)
	}
	if c.Margin <= 0 || c.Margin > 1 {
		return fmt.Errorf("forecast: margin %v out of (0,1]", c.Margin)
	}
	if c.MinCentroidNorm < 0 {
		return fmt.Errorf("forecast: negative MinCentroidNorm %v", c.MinCentroidNorm)
	}
	return nil
}

// Forecaster warns about an impending crisis of one type.
type Forecaster struct {
	cfg      Config
	centroid []float64
	zero     []float64
	trained  int
}

// Train learns the pre-crisis centroid from the detection-start epochs of
// past crises of one type, reading epoch fingerprints through f.
func Train(f *core.Fingerprinter, track *metrics.QuantileTrack, detections []metrics.Epoch, cfg Config) (*Forecaster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if f == nil || track == nil {
		return nil, errors.New("forecast: nil fingerprinter or track")
	}
	if len(detections) < cfg.MinCrises {
		return nil, fmt.Errorf("forecast: %d training crises, need at least %d", len(detections), cfg.MinCrises)
	}
	sum := make([]float64, f.Size())
	n := 0
	for _, det := range detections {
		for e := det - metrics.Epoch(cfg.Lead); e < det; e++ {
			if e < 0 || int(e) >= track.NumEpochs() {
				continue
			}
			row, err := track.EpochRow(e)
			if err != nil {
				return nil, err
			}
			v, err := f.EpochFingerprint(row)
			if err != nil {
				return nil, err
			}
			for j := range sum {
				sum[j] += v[j]
			}
			n++
		}
	}
	if n == 0 {
		return nil, errors.New("forecast: no usable pre-detection epochs")
	}
	for j := range sum {
		sum[j] /= float64(n)
	}
	if stats.Norm2(sum) < cfg.MinCentroidNorm {
		return nil, fmt.Errorf("forecast: pre-detection centroid norm %.3f below %.3f; crises of this type show no early signs", stats.Norm2(sum), cfg.MinCentroidNorm)
	}
	return &Forecaster{
		cfg:      cfg,
		centroid: sum,
		zero:     make([]float64, len(sum)),
		trained:  len(detections),
	}, nil
}

// Warns reports whether one epoch fingerprint looks like the hour before a
// crisis of the trained type: closer (scaled by Margin) to the pre-crisis
// centroid than to the all-normal state.
func (fc *Forecaster) Warns(epochFP []float64) (bool, error) {
	if len(epochFP) != len(fc.centroid) {
		return false, fmt.Errorf("forecast: fingerprint size %d, want %d", len(epochFP), len(fc.centroid))
	}
	dc, err := stats.L2Distance(epochFP, fc.centroid)
	if err != nil {
		return false, err
	}
	dz, err := stats.L2Distance(epochFP, fc.zero)
	if err != nil {
		return false, err
	}
	return dc < fc.cfg.Margin*dz, nil
}

// Evaluation scores a forecaster against ground truth.
type Evaluation struct {
	// Warned counts crises with at least one warning in the scan window
	// before detection; Crises is the total evaluated.
	Warned, Crises int
	// MeanLeadEpochs is the average warning lead over warned crises.
	MeanLeadEpochs float64
	// FalseAlarmRate is the fraction of sampled normal epochs that warn.
	FalseAlarmRate float64
	// NormalSampled is the number of normal epochs scored.
	NormalSampled int
}

// Evaluate scores the forecaster: for each evaluation crisis it scans
// scanBack epochs before detection for the first warning, and it estimates
// the false-alarm rate over normal epochs accepted by isEvaluable (use it
// to exclude epochs near any crisis).
func (fc *Forecaster) Evaluate(f *core.Fingerprinter, track *metrics.QuantileTrack, detections []metrics.Epoch, scanBack int, isEvaluable func(metrics.Epoch) bool, sampleStride int) (Evaluation, error) {
	if scanBack < 1 || sampleStride < 1 {
		return Evaluation{}, errors.New("forecast: scanBack and sampleStride must be positive")
	}
	if isEvaluable == nil {
		return Evaluation{}, errors.New("forecast: nil isEvaluable")
	}
	ev := Evaluation{Crises: len(detections)}
	leadSum := 0
	epochFP := func(e metrics.Epoch) ([]float64, error) {
		row, err := track.EpochRow(e)
		if err != nil {
			return nil, err
		}
		return f.EpochFingerprint(row)
	}
	for _, det := range detections {
		for e := det - metrics.Epoch(scanBack); e < det; e++ {
			if e < 0 || int(e) >= track.NumEpochs() {
				continue
			}
			v, err := epochFP(e)
			if err != nil {
				return Evaluation{}, err
			}
			warn, err := fc.Warns(v)
			if err != nil {
				return Evaluation{}, err
			}
			if warn {
				ev.Warned++
				leadSum += int(det - e)
				break
			}
		}
	}
	if ev.Warned > 0 {
		ev.MeanLeadEpochs = float64(leadSum) / float64(ev.Warned)
	}
	for e := metrics.Epoch(0); int(e) < track.NumEpochs(); e += metrics.Epoch(sampleStride) {
		if !isEvaluable(e) {
			continue
		}
		v, err := epochFP(e)
		if err != nil {
			return Evaluation{}, err
		}
		warn, err := fc.Warns(v)
		if err != nil {
			return Evaluation{}, err
		}
		ev.NormalSampled++
		if warn {
			ev.FalseAlarmRate++
		}
	}
	if ev.NormalSampled > 0 {
		ev.FalseAlarmRate /= float64(ev.NormalSampled)
	}
	return ev, nil
}
