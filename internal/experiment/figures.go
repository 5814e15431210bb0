package experiment

import (
	"fmt"
	"sort"

	"dcfp/internal/core"
	"dcfp/internal/crisis"
	"dcfp/internal/metrics"
	"dcfp/internal/stats"
)

// Table1Row is one row of the crisis catalog (Table 1).
type Table1Row struct {
	ID        string // type letter
	Instances int
	Label     string
	Detected  int // how many instances the SLA rule detected
}

// Table1 regenerates the crisis catalog from the trace's ground truth.
func Table1(e *Env) []Table1Row {
	injected := map[crisis.Type]int{}
	detected := map[crisis.Type]int{}
	for _, in := range e.Trace.Instances {
		if in.Labeled {
			injected[in.Type]++
		}
	}
	for _, dc := range e.Labeled {
		detected[dc.Instance.Type]++
	}
	var rows []Table1Row
	for ty := crisis.TypeA; ty <= crisis.TypeJ; ty++ {
		if injected[ty] == 0 {
			continue
		}
		rows = append(rows, Table1Row{
			ID:        ty.String(),
			Instances: injected[ty],
			Label:     ty.Label(),
			Detected:  detected[ty],
		})
	}
	return rows
}

// Figure1Crisis is one fingerprint heatmap: rows are epochs of the summary
// window, columns are relevant metric quantiles, values in {-1, 0, +1}
// (rendered white/gray/black in the paper).
type Figure1Crisis struct {
	ID    string
	Type  string
	Label string
	Grid  [][]float64
}

// Figure1 renders fingerprints of four crises — the second and third type-B
// crises plus the D and C crises, as in the paper's figure — under the
// offline fingerprinter.
func Figure1(e *Env) ([]Figure1Crisis, error) {
	cfg := OfflineFPConfig()
	f, err := e.fingerprinterFor(cfg, -1)
	if err != nil {
		return nil, err
	}
	var picks []int
	bSeen := 0
	for i, dc := range e.Labeled {
		switch dc.Instance.Type {
		case crisis.TypeB:
			bSeen++
			if bSeen == 2 || bSeen == 3 {
				picks = append(picks, i)
			}
		case crisis.TypeD, crisis.TypeC:
			picks = append(picks, i)
		}
	}
	var out []Figure1Crisis
	for _, i := range picks {
		dc := e.Labeled[i]
		grid, err := f.EpochGrid(e.Trace.Track, dc.Episode.Start, cfg.Range)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure1Crisis{
			ID:    dc.Instance.ID,
			Type:  dc.Instance.Type.String(),
			Label: dc.Instance.Type.Label(),
			Grid:  grid,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiment: no crises of types B, C, D detected")
	}
	return out, nil
}

// Figure3Entry is one method's discrimination curve.
type Figure3Entry struct {
	Method string
	ROC    stats.ROC
	AUC    float64
}

// Figure3 compares the discriminative power of the four methods in the
// offline (best-case) setting: distance ROC curves and their AUC.
func Figure3(e *Env) ([]Figure3Entry, error) {
	tensors, err := e.offlineTensors()
	if err != nil {
		return nil, err
	}
	var out []Figure3Entry
	for _, t := range tensors {
		roc, err := Discrimination(t)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure3Entry{Method: t.Method, ROC: roc, AUC: roc.AUC()})
	}
	return out, nil
}

// offlineTensors builds the four §4.2 methods in the offline setting.
func (e *Env) offlineTensors() ([]*Tensor, error) {
	fp, err := e.BuildFingerprintTensor(OfflineFPConfig())
	if err != nil {
		return nil, fmt.Errorf("experiment: fingerprints: %w", err)
	}
	sig, err := e.BuildSignatureTensor(DefaultSignatureConfig())
	if err != nil {
		return nil, fmt.Errorf("experiment: signatures: %w", err)
	}
	allCfg := OfflineFPConfig()
	allCfg.NumRelevant = 0
	all, err := e.BuildFingerprintTensor(allCfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: all-metrics: %w", err)
	}
	kpi, err := e.BuildKPITensor(core.DefaultSummaryRange())
	if err != nil {
		return nil, fmt.Errorf("experiment: KPIs: %w", err)
	}
	return []*Tensor{fp, sig, all, kpi}, nil
}

// Figure4 runs the offline identification protocol for all four methods:
// known/unknown accuracy and time to identification as functions of α.
func Figure4(e *Env, seed int64) ([]IdentSeries, error) {
	tensors, err := e.offlineTensors()
	if err != nil {
		return nil, err
	}
	var out []IdentSeries
	for _, t := range tensors {
		s, err := RunIdentification(t, OfflineRunConfig(seed))
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", t.Method, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure5 runs the quasi-online protocol for fingerprints: online relevant
// metrics (30) and thresholds (240-day window), offline identification
// threshold.
func Figure5(e *Env, seed int64) (IdentSeries, error) {
	t, err := e.BuildFingerprintTensor(OnlineFPConfig())
	if err != nil {
		return IdentSeries{}, err
	}
	return RunIdentification(t, QuasiOnlineRunConfig(seed))
}

// Figure6Entry is one online-identification variant.
type Figure6Entry struct {
	Name   string
	Series IdentSeries
}

// Figure6 runs the fully online protocol: 30 metrics with a 240-day window
// bootstrapped with 10 and with 2 labeled crises, plus 120-day and 7-day
// windows at bootstrap 10.
func Figure6(e *Env, seed int64) ([]Figure6Entry, error) {
	base, err := e.BuildFingerprintTensor(OnlineFPConfig())
	if err != nil {
		return nil, err
	}
	var out []Figure6Entry
	for _, v := range []struct {
		name      string
		bootstrap int
	}{
		{"30 metrics, 240 days, bootstrap 10", 10},
		{"30 metrics, 240 days, bootstrap 2", 2},
	} {
		s, err := RunIdentification(base, OnlineRunConfig(seed, v.bootstrap))
		if err != nil {
			return nil, err
		}
		out = append(out, Figure6Entry{Name: v.name, Series: s})
	}
	for _, days := range []int{120, 7} {
		cfg := OnlineFPConfig()
		cfg.Thresholds.WindowEpochs = days * metrics.EpochsPerDay
		t, err := e.BuildFingerprintTensor(cfg)
		if err != nil {
			return nil, err
		}
		s, err := RunIdentification(t, OnlineRunConfig(seed, 10))
		if err != nil {
			return nil, err
		}
		out = append(out, Figure6Entry{
			Name:   fmt.Sprintf("30 metrics, %d days, bootstrap 10", days),
			Series: s,
		})
	}
	return out, nil
}

// Figure7Result is the discrimination AUC over crisis-summary ranges:
// one series per window start (minutes relative to detection), sampled at
// each window end.
type Figure7Result struct {
	// StartMinutes are the window starts (e.g. -60, -45, -30, -15, 0).
	StartMinutes []int
	// EndMinutes are the window ends (0..150).
	EndMinutes []int
	// AUC[si][ei] is the AUC for range [StartMinutes[si], EndMinutes[ei]];
	// NaN where the range is empty.
	AUC [][]float64
}

// Figure7 sweeps the fingerprint summary range (§6.1): ranges starting at
// least 30 minutes before detection reach high discrimination quickly.
func Figure7(e *Env) (Figure7Result, error) {
	res := Figure7Result{}
	for b := 4; b >= 0; b-- {
		res.StartMinutes = append(res.StartMinutes, -15*b)
	}
	for a := 0; a <= 10; a++ {
		res.EndMinutes = append(res.EndMinutes, 15*a)
	}
	cfg := OfflineFPConfig()
	for _, sm := range res.StartMinutes {
		row := make([]float64, len(res.EndMinutes))
		for ei, em := range res.EndMinutes {
			cfg.Range = core.SummaryRange{Before: -sm / 15, After: em / 15}
			t, err := e.BuildFingerprintTensor(cfg)
			if err != nil {
				return Figure7Result{}, err
			}
			roc, err := Discrimination(t)
			if err != nil {
				return Figure7Result{}, err
			}
			row[ei] = roc.AUC()
		}
		res.AUC = append(res.AUC, row)
	}
	return res, nil
}

// Figure8 reruns the online bootstrap-10 experiment with fingerprint
// updating disabled (§6.3): past crises keep the discretization from the
// thresholds in force when they occurred.
func Figure8(e *Env, seed int64) (IdentSeries, error) {
	cfg := OnlineFPConfig()
	cfg.FrozenStore = true
	t, err := e.BuildFingerprintTensor(cfg)
	if err != nil {
		return IdentSeries{}, err
	}
	return RunIdentification(t, OnlineRunConfig(seed, 10))
}

// Table2Row is one line of the settings summary (Table 2), reported at the
// operating point where the known and unknown accuracy curves cross.
type Table2Row struct {
	Setting string
	Known   float64
	Unknown float64
	Alpha   float64
}

// Table2 reproduces the summary of results across settings.
func Table2(e *Env, seed int64) ([]Table2Row, error) {
	var rows []Table2Row
	add := func(name string, s IdentSeries, err error) error {
		if err != nil {
			return fmt.Errorf("experiment: %s: %w", name, err)
		}
		a, k, u := s.Crossing()
		rows = append(rows, Table2Row{Setting: name, Known: k, Unknown: u, Alpha: a})
		return nil
	}
	offT, err := e.BuildFingerprintTensor(OfflineFPConfig())
	if err != nil {
		return nil, err
	}
	offS, err := RunIdentification(offT, OfflineRunConfig(seed))
	if err := add("offline", offS, err); err != nil {
		return nil, err
	}
	onT, err := e.BuildFingerprintTensor(OnlineFPConfig())
	if err != nil {
		return nil, err
	}
	quasiS, err := RunIdentification(onT, QuasiOnlineRunConfig(seed))
	if err := add("quasi-online", quasiS, err); err != nil {
		return nil, err
	}
	on10, err := RunIdentification(onT, OnlineRunConfig(seed, 10))
	if err := add("online, bootstrap w/ 10", on10, err); err != nil {
		return nil, err
	}
	on2, err := RunIdentification(onT, OnlineRunConfig(seed, 2))
	if err := add("online, bootstrap w/ 2", on2, err); err != nil {
		return nil, err
	}
	return rows, nil
}

// SensitivityCell is one (metric count × window length) operating point of
// the §6.1 sensitivity study.
type SensitivityCell struct {
	NumMetrics int
	WindowDays int
	Alpha      float64
	Known      float64
	Unknown    float64
}

// SensitivityMetricsWindow sweeps fingerprint size and moving-window
// length in the online bootstrap-10 setting.
func SensitivityMetricsWindow(e *Env, seed int64, metricCounts, windowDays []int) ([]SensitivityCell, error) {
	var out []SensitivityCell
	for _, days := range windowDays {
		for _, nm := range metricCounts {
			cfg := OnlineFPConfig()
			cfg.NumRelevant = nm
			cfg.Thresholds.WindowEpochs = days * metrics.EpochsPerDay
			t, err := e.BuildFingerprintTensor(cfg)
			if err != nil {
				return nil, err
			}
			s, err := RunIdentification(t, OnlineRunConfig(seed, 10))
			if err != nil {
				return nil, err
			}
			a, k, u := s.Crossing()
			out = append(out, SensitivityCell{NumMetrics: nm, WindowDays: days, Alpha: a, Known: k, Unknown: u})
		}
	}
	return out, nil
}

// HotColdCell is one hot/cold percentile pair's discrimination result
// (§6.2).
type HotColdCell struct {
	ColdPct, HotPct float64
	AUC             float64
}

// SensitivityHotCold sweeps the hot/cold threshold percentiles in the
// offline discrimination setting; the paper finds (2, 98) best at 0.99.
func SensitivityHotCold(e *Env) ([]HotColdCell, error) {
	pairs := [][2]float64{{2, 98}, {1, 99}, {5, 95}, {10, 90}}
	var out []HotColdCell
	for _, p := range pairs {
		cfg := OfflineFPConfig()
		cfg.Thresholds.ColdPercentile = p[0]
		cfg.Thresholds.HotPercentile = p[1]
		t, err := e.BuildFingerprintTensor(cfg)
		if err != nil {
			return nil, err
		}
		roc, err := Discrimination(t)
		if err != nil {
			return nil, err
		}
		out = append(out, HotColdCell{ColdPct: p[0], HotPct: p[1], AUC: roc.AUC()})
	}
	return out, nil
}

// QuantileAblationCell reports discrimination when tracking only a subset
// of the three quantiles — the §3.5 observation that quantiles moving in
// different directions carry identification signal.
type QuantileAblationCell struct {
	Quantiles []float64
	AUC       float64
}

// AblationQuantileCount compares full three-quantile fingerprints against
// median-only fingerprints by zeroing the excluded quantile columns.
func AblationQuantileCount(e *Env) ([]QuantileAblationCell, error) {
	cfg := OfflineFPConfig()
	f, err := e.fingerprinterFor(cfg, -1)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		qis []int
		qs  []float64
	}{
		{[]int{0, 1, 2}, []float64{0.25, 0.50, 0.95}},
		{[]int{1}, []float64{0.50}},
		{[]int{2}, []float64{0.95}},
	}
	var out []QuantileAblationCell
	for _, v := range variants {
		var same, diff []float64
		fps := make([][]float64, len(e.Labeled))
		for i, dc := range e.Labeled {
			fp, err := f.CrisisFingerprint(e.Trace.Track, dc.Episode.Start, cfg.Range)
			if err != nil {
				return nil, err
			}
			fps[i] = maskQuantiles(fp, v.qis)
		}
		for i := 0; i < len(fps); i++ {
			for j := i + 1; j < len(fps); j++ {
				d, err := stats.L2Distance(fps[i], fps[j])
				if err != nil {
					return nil, err
				}
				if e.Labeled[i].Instance.Type == e.Labeled[j].Instance.Type {
					same = append(same, d)
				} else {
					diff = append(diff, d)
				}
			}
		}
		roc := stats.DistanceROC(same, diff)
		out = append(out, QuantileAblationCell{Quantiles: v.qs, AUC: roc.AUC()})
	}
	return out, nil
}

// maskQuantiles keeps only the listed quantile indices (0=25th, 1=50th,
// 2=95th) of a fingerprint, zeroing the rest.
func maskQuantiles(fp []float64, keep []int) []float64 {
	keepSet := map[int]bool{}
	for _, qi := range keep {
		keepSet[qi] = true
	}
	out := make([]float64, len(fp))
	for i, v := range fp {
		if keepSet[i%metrics.NumQuantiles] {
			out[i] = v
		}
	}
	return out
}

// RelevantMetricNames resolves the offline relevant metric set to names,
// sorted by column — a diagnostic the operators of the studied datacenter
// asked for (the §8 anecdote about prioritizing correlated metrics).
func RelevantMetricNames(e *Env, topK, numRelevant int) ([]string, error) {
	rel, err := e.RelevantOffline(topK, numRelevant)
	if err != nil {
		return nil, err
	}
	sort.Ints(rel)
	names := make([]string, len(rel))
	for i, m := range rel {
		names[i] = e.Trace.Catalog.Name(m)
	}
	return names, nil
}
