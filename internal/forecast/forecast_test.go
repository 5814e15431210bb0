package forecast

import (
	"math/rand"
	"testing"

	"dcfp/internal/core"
	"dcfp/internal/metrics"
)

// buildWorld creates a track of nm metrics over n epochs where crises of a
// "type" push metric 0 and 1 hot with a 3-epoch pre-detection buildup.
// Returns the track, thresholds and the detection epochs.
func buildWorld(t *testing.T, nm, n int, detections []int, seed int64) (*metrics.QuantileTrack, *metrics.Thresholds) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr, err := metrics.NewQuantileTrack(nm)
	if err != nil {
		t.Fatal(err)
	}
	inBuildup := func(e int) float64 {
		for _, d := range detections {
			if e >= d-3 && e < d {
				return float64(e-(d-3)+1) / 3 // 1/3, 2/3, 1
			}
			if e >= d && e < d+5 {
				return 1
			}
		}
		return 0
	}
	for e := 0; e < n; e++ {
		row := make([][3]float64, nm)
		level := inBuildup(e)
		for m := 0; m < nm; m++ {
			base := 100 + rng.NormFloat64()*2
			if m < 2 && level > 0 {
				base *= 1 + 2*level
			}
			for qi := 0; qi < metrics.NumQuantiles; qi++ {
				row[m][qi] = base * (1 + rng.NormFloat64()*0.01)
			}
		}
		if err := tr.AppendEpoch(row); err != nil {
			t.Fatal(err)
		}
	}
	isNormal := func(e metrics.Epoch) bool { return inBuildup(int(e)) == 0 }
	th, err := metrics.ComputeThresholds(tr, isNormal, metrics.Epoch(n-1),
		metrics.ThresholdConfig{ColdPercentile: 2, HotPercentile: 98, WindowEpochs: n})
	if err != nil {
		t.Fatal(err)
	}
	return tr, th
}

func epochsOf(ds []int) []metrics.Epoch {
	out := make([]metrics.Epoch, len(ds))
	for i, d := range ds {
		out[i] = metrics.Epoch(d)
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	tr, th := buildWorld(t, 3, 400, []int{100, 200, 300}, 1)
	f, err := core.NewFingerprinter(th, core.AllMetrics(3))
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Lead: 0, MinCrises: 3, Margin: 1},
		{Lead: 4, MinCrises: 0, Margin: 1},
		{Lead: 4, MinCrises: 3, Margin: 0},
		{Lead: 4, MinCrises: 3, Margin: 1.5},
		{Lead: 4, MinCrises: 3, Margin: 1, MinCentroidNorm: -1},
	}
	dets := epochsOf([]int{100, 200, 300})
	for i, cfg := range bad {
		if _, err := Train(f, tr, dets, cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := Train(nil, tr, dets, DefaultConfig()); err == nil {
		t.Error("want nil fingerprinter error")
	}
	if _, err := Train(f, tr, dets[:2], DefaultConfig()); err == nil {
		t.Error("want too-few-crises error")
	}
}

func TestTrainRejectsAllNormalCentroid(t *testing.T) {
	// Crises with NO buildup: pre-detection epochs look normal, centroid
	// is ~zero and training must refuse.
	rng := rand.New(rand.NewSource(2))
	tr, err := metrics.NewQuantileTrack(2)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 300; e++ {
		v := 100 + rng.NormFloat64()*0.5
		if err := tr.AppendEpoch([][3]float64{{v, v, v}, {v, v, v}}); err != nil {
			t.Fatal(err)
		}
	}
	th, err := metrics.ComputeThresholds(tr, func(metrics.Epoch) bool { return true }, 299,
		metrics.ThresholdConfig{ColdPercentile: 2, HotPercentile: 98, WindowEpochs: 300})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := core.NewFingerprinter(th, core.AllMetrics(2))
	_, err = Train(f, tr, epochsOf([]int{100, 150, 200}), DefaultConfig())
	if err == nil {
		t.Fatal("want all-normal centroid error")
	}
}

func TestForecastWarnsBeforeCrises(t *testing.T) {
	dets := []int{150, 400, 650, 900}
	tr, th := buildWorld(t, 4, 1100, dets, 3)
	f, err := core.NewFingerprinter(th, core.AllMetrics(4))
	if err != nil {
		t.Fatal(err)
	}
	// Train on the first three crises, evaluate on all four (including
	// the held-out last one).
	fc, err := Train(f, tr, epochsOf(dets[:3]), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fc.trained != 3 {
		t.Fatalf("trained on %d crises", fc.trained)
	}
	isEvaluable := func(e metrics.Epoch) bool {
		for _, d := range dets {
			if int(e) >= d-8 && int(e) <= d+8 {
				return false
			}
		}
		return true
	}
	ev, err := fc.Evaluate(f, tr, epochsOf(dets), 6, isEvaluable, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Crises != 4 || ev.Warned < 3 {
		t.Fatalf("warned %d/%d crises", ev.Warned, ev.Crises)
	}
	if ev.MeanLeadEpochs < 1 {
		t.Fatalf("mean lead %v epochs", ev.MeanLeadEpochs)
	}
	if ev.FalseAlarmRate > 0.1 {
		t.Fatalf("false alarm rate %v", ev.FalseAlarmRate)
	}
	if ev.NormalSampled == 0 {
		t.Fatal("no normal epochs sampled")
	}
}

func TestWarnsValidation(t *testing.T) {
	dets := []int{150, 400, 650}
	tr, th := buildWorld(t, 3, 800, dets, 4)
	f, _ := core.NewFingerprinter(th, core.AllMetrics(3))
	fc, err := Train(f, tr, epochsOf(dets), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Warns([]float64{1}); err == nil {
		t.Fatal("want size error")
	}
	if _, err := fc.Evaluate(f, tr, epochsOf(dets), 0, func(metrics.Epoch) bool { return true }, 1); err == nil {
		t.Fatal("want scanBack error")
	}
	if _, err := fc.Evaluate(f, tr, epochsOf(dets), 4, nil, 1); err == nil {
		t.Fatal("want nil isEvaluable error")
	}
}

func TestMarginTradesLeadForFalseAlarms(t *testing.T) {
	dets := []int{150, 400, 650, 900}
	tr, th := buildWorld(t, 4, 1100, dets, 5)
	f, _ := core.NewFingerprinter(th, core.AllMetrics(4))
	isEvaluable := func(e metrics.Epoch) bool {
		for _, d := range dets {
			if int(e) >= d-8 && int(e) <= d+8 {
				return false
			}
		}
		return true
	}
	loose, err := Train(f, tr, epochsOf(dets[:3]), Config{Lead: 4, MinCrises: 3, Margin: 1, MinCentroidNorm: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Train(f, tr, epochsOf(dets[:3]), Config{Lead: 4, MinCrises: 3, Margin: 0.5, MinCentroidNorm: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	evLoose, err := loose.Evaluate(f, tr, epochsOf(dets), 6, isEvaluable, 3)
	if err != nil {
		t.Fatal(err)
	}
	evStrict, err := strict.Evaluate(f, tr, epochsOf(dets), 6, isEvaluable, 3)
	if err != nil {
		t.Fatal(err)
	}
	if evStrict.FalseAlarmRate > evLoose.FalseAlarmRate {
		t.Fatalf("stricter margin raised false alarms: %v > %v", evStrict.FalseAlarmRate, evLoose.FalseAlarmRate)
	}
	if evStrict.Warned > evLoose.Warned {
		t.Fatalf("stricter margin warned more crises: %d > %d", evStrict.Warned, evLoose.Warned)
	}
}
