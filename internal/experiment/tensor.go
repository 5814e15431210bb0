package experiment

import (
	"errors"
	"fmt"

	"dcfp/internal/core"
	"dcfp/internal/dcsim"
	"dcfp/internal/ident"
	"dcfp/internal/metrics"
	"dcfp/internal/stats"
)

// Tensor holds every identification distance one method needs, precomputed
// so that α sweeps and permutation runs are cheap.
//
// Distances follow the paper's online protocol: every per-crisis quantity
// (thresholds, relevant metrics, models) is computed in chronological order
// regardless of the order crises are later presented in (§5.2).
type Tensor struct {
	Method string
	// Crises are the labeled crises, chronological.
	Crises []dcsim.DetectedCrisis
	// Partial[c][k][x] is the distance between the partial representation
	// of crisis c at identification epoch k (0-based from detection) and
	// the full representation of crisis x.
	Partial [][][]float64
	// Full[c][x] is the symmetric full-representation distance, used for
	// identification-threshold estimation and discrimination ROC curves.
	Full [][]float64
}

// Labels returns the ground-truth type letter of crisis x.
func (t *Tensor) Label(x int) string { return t.Crises[x].Instance.Type.String() }

// FPConfig configures a fingerprint-method tensor.
type FPConfig struct {
	// Online selects per-crisis (moving-window) threshold and relevant-
	// metric estimation; false means perfect-future-knowledge offline
	// estimation.
	Online bool
	// FrozenStore reproduces the §6.3 ablation: past crises keep the
	// discretization from the thresholds in force when they occurred.
	FrozenStore bool
	// PerCrisisTopK is feature selection's per-crisis metric count (10).
	PerCrisisTopK int
	// NumRelevant is the fingerprint's metric count (15 offline, 30
	// online). Zero means use all metrics (the §4.2 baseline).
	NumRelevant int
	// PoolSize is how many recent crises feed online metric selection.
	PoolSize int
	// Thresholds configures the hot/cold window.
	Thresholds metrics.ThresholdConfig
	// Range is the crisis summary window.
	Range core.SummaryRange
}

// OfflineFPConfig is the paper's offline fingerprint setting: top 10 per
// crisis, 15 relevant metrics, 2/98 thresholds over the full study.
func OfflineFPConfig() FPConfig {
	return FPConfig{
		PerCrisisTopK: 10,
		NumRelevant:   15,
		PoolSize:      20,
		Thresholds:    metrics.DefaultThresholdConfig(),
		Range:         core.DefaultSummaryRange(),
	}
}

// OnlineFPConfig is the paper's online setting: 30 relevant metrics over a
// 240-day moving window.
func OnlineFPConfig() FPConfig {
	cfg := OfflineFPConfig()
	cfg.Online = true
	cfg.NumRelevant = 30
	return cfg
}

// fingerprinterFor builds the fingerprinter in force for crisis index i
// (online) or the global one (offline, i < 0).
func (e *Env) fingerprinterFor(cfg FPConfig, i int) (*core.Fingerprinter, error) {
	var th *metrics.Thresholds
	var err error
	if cfg.Online && i >= 0 {
		th, err = e.OnlineThresholds(e.Labeled[i], cfg.Thresholds)
	} else {
		th, err = e.OfflineThresholds(cfg.Thresholds)
	}
	if err != nil {
		return nil, err
	}
	var rel []int
	switch {
	case cfg.NumRelevant <= 0:
		rel = core.AllMetrics(e.Trace.Catalog.Len())
	case cfg.Online && i >= 0:
		rel, err = e.RelevantOnline(e.Labeled[i], cfg.PoolSize, cfg.PerCrisisTopK, cfg.NumRelevant)
	default:
		rel, err = e.RelevantOffline(cfg.PerCrisisTopK, cfg.NumRelevant)
	}
	if err != nil {
		return nil, err
	}
	return core.NewFingerprinter(th, rel)
}

// BuildFingerprintTensor computes the identification tensor for the
// fingerprint method (or the all-metrics baseline when NumRelevant == 0).
func (e *Env) BuildFingerprintTensor(cfg FPConfig) (*Tensor, error) {
	n := len(e.Labeled)
	t := &Tensor{Crises: e.Labeled, Method: "fingerprints"}
	if cfg.NumRelevant <= 0 {
		t.Method = "fingerprints (all metrics)"
	}
	if cfg.FrozenStore {
		t.Method += " [frozen]"
	}

	// Per-crisis fingerprinters (chronological); offline shares one.
	fps := make([]*core.Fingerprinter, n)
	for i := range fps {
		idx := -1
		if cfg.Online {
			idx = i
		}
		f, err := e.fingerprinterFor(cfg, idx)
		if err != nil {
			return nil, fmt.Errorf("experiment: fingerprinter for crisis %d: %w", i, err)
		}
		fps[i] = f
		if !cfg.Online {
			for j := range fps {
				fps[j] = f
			}
			break
		}
	}

	// For the frozen ablation we need each crisis's full-width state under
	// its *own* thresholds.
	var storedState [][]float64
	if cfg.FrozenStore {
		storedState = make([][]float64, n)
		for x := range storedState {
			thx, err := e.OnlineThresholds(e.Labeled[x], cfg.Thresholds)
			if err != nil {
				return nil, err
			}
			fx, err := core.NewFingerprinter(thx, core.AllMetrics(e.Trace.Catalog.Len()))
			if err != nil {
				return nil, err
			}
			storedState[x], err = fx.CrisisFingerprint(e.Trace.Track, e.Labeled[x].Episode.Start, cfg.Range)
			if err != nil {
				return nil, err
			}
		}
	}

	// fullUnder(c, x): the full fingerprint of crisis x as seen at crisis
	// c's identification time.
	fullUnder := func(c, x int) ([]float64, error) {
		if cfg.FrozenStore && x != c {
			return projectRelevant(storedState[x], fps[c].Relevant()), nil
		}
		return fps[c].CrisisFingerprint(e.Trace.Track, e.Labeled[x].Episode.Start, cfg.Range)
	}

	t.Partial = make([][][]float64, n)
	t.Full = make([][]float64, n)
	for c := range t.Full {
		t.Full[c] = make([]float64, n)
	}
	for c := 0; c < n; c++ {
		t.Partial[c] = make([][]float64, ident.IdentificationEpochs)
		start := e.Labeled[c].Episode.Start
		for k := 0; k < ident.IdentificationEpochs; k++ {
			part, err := fps[c].CrisisFingerprintUpTo(e.Trace.Track, start, cfg.Range, start+metrics.Epoch(k))
			if err != nil {
				return nil, err
			}
			row := make([]float64, n)
			for x := 0; x < n; x++ {
				if x == c {
					continue
				}
				fx, err := fullUnder(c, x)
				if err != nil {
					return nil, err
				}
				d, err := stats.L2Distance(part, fx)
				if err != nil {
					return nil, err
				}
				row[x] = d
			}
			t.Partial[c][k] = row
		}
	}
	// Full matrix: pair (i, j), i < j, measured under the chronologically
	// later crisis's fingerprinter (what an online deployment has when the
	// pair first coexists).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, err := fullUnder(j, i)
			if err != nil {
				return nil, err
			}
			b, err := fps[j].CrisisFingerprint(e.Trace.Track, e.Labeled[j].Episode.Start, cfg.Range)
			if err != nil {
				return nil, err
			}
			d, err := stats.L2Distance(a, b)
			if err != nil {
				return nil, err
			}
			t.Full[i][j] = d
			t.Full[j][i] = d
		}
	}
	return t, nil
}

// projectRelevant extracts the relevant metric columns from a full-width
// (numMetrics×3) state vector.
func projectRelevant(full []float64, relevant []int) []float64 {
	out := make([]float64, 0, len(relevant)*metrics.NumQuantiles)
	for _, m := range relevant {
		for qi := 0; qi < metrics.NumQuantiles; qi++ {
			out = append(out, full[m*metrics.NumQuantiles+qi])
		}
	}
	return out
}

// BuildKPITensor computes the tensor for the KPI baseline.
func (e *Env) BuildKPITensor(r core.SummaryRange) (*Tensor, error) {
	kf, err := newKPIFingerprinter(e.Trace.Status)
	if err != nil {
		return nil, err
	}
	n := len(e.Labeled)
	full := make([][]float64, n)
	for x := range full {
		full[x], err = kf.crisisFingerprint(e.Labeled[x].Episode.Start, r)
		if err != nil {
			return nil, err
		}
	}
	t := &Tensor{Crises: e.Labeled, Method: "KPIs"}
	t.Partial = make([][][]float64, n)
	t.Full = make([][]float64, n)
	for c := 0; c < n; c++ {
		t.Full[c] = make([]float64, n)
		t.Partial[c] = make([][]float64, ident.IdentificationEpochs)
		start := e.Labeled[c].Episode.Start
		for k := 0; k < ident.IdentificationEpochs; k++ {
			part, err := kf.crisisFingerprintUpTo(start, r, start+metrics.Epoch(k))
			if err != nil {
				return nil, err
			}
			row := make([]float64, n)
			for x := 0; x < n; x++ {
				if x == c {
					continue
				}
				d, err := stats.L2Distance(part, full[x])
				if err != nil {
					return nil, err
				}
				row[x] = d
			}
			t.Partial[c][k] = row
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d, err := stats.L2Distance(full[i], full[j])
			if err != nil {
				return nil, err
			}
			t.Full[i][j] = d
			t.Full[j][i] = d
		}
	}
	return t, nil
}

// SignatureConfig configures the signatures-baseline tensor.
type SignatureConfig struct {
	// ModelColumns is how many metric-quantile columns each per-crisis
	// model retains (the attribution vocabulary).
	ModelColumns int
	// NormalFactor is how many normal epochs are sampled per crisis
	// epoch when forming the training set (class balance).
	NormalFactor int
	Range        core.SummaryRange
}

// DefaultSignatureConfig mirrors the fingerprint configuration: 30 columns
// per model, four normal epochs per crisis epoch.
func DefaultSignatureConfig() SignatureConfig {
	return SignatureConfig{ModelColumns: 30, NormalFactor: 4, Range: core.DefaultSummaryRange()}
}

// BuildSignatureTensor computes the tensor for the adapted signatures
// method [6]. Per the Appendix, each crisis gets its own model (granting
// the baseline optimal model management), and a new crisis c is compared
// to a past crisis x under x's model.
func (e *Env) BuildSignatureTensor(cfg SignatureConfig) (*Tensor, error) {
	n := len(e.Labeled)
	if cfg.NormalFactor <= 0 {
		return nil, errors.New("experiment: NormalFactor must be positive")
	}
	models := make([]*signatureModel, n)
	for x := 0; x < n; x++ {
		ep := e.Labeled[x].Episode
		var crisisEpochs []metrics.Epoch
		for t := ep.Start; t <= ep.End; t++ {
			crisisEpochs = append(crisisEpochs, t)
		}
		normal := e.NormalEpochsBefore(ep, cfg.NormalFactor*len(crisisEpochs), 2)
		m, err := buildSignatureModel(e.Trace.Track, crisisEpochs, normal, cfg.ModelColumns)
		if err != nil {
			return nil, fmt.Errorf("experiment: signature model for crisis %d: %w", x, err)
		}
		models[x] = m
	}

	t := &Tensor{Crises: e.Labeled, Method: "signatures"}
	t.Partial = make([][][]float64, n)
	t.Full = make([][]float64, n)
	for c := range t.Full {
		t.Full[c] = make([]float64, n)
	}
	for c := 0; c < n; c++ {
		t.Partial[c] = make([][]float64, ident.IdentificationEpochs)
		startC := e.Labeled[c].Episode.Start
		for k := 0; k < ident.IdentificationEpochs; k++ {
			row := make([]float64, n)
			for x := 0; x < n; x++ {
				if x == c {
					continue
				}
				startX := e.Labeled[x].Episode.Start
				d, err := models[x].distance(e.Trace.Track, startC, startX, cfg.Range,
					startC+metrics.Epoch(k), startX+metrics.Epoch(cfg.Range.After))
				if err != nil {
					return nil, err
				}
				row[x] = d
			}
			t.Partial[c][k] = row
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			si := e.Labeled[i].Episode.Start
			sj := e.Labeled[j].Episode.Start
			dij, err := models[j].distance(e.Trace.Track, si, sj, cfg.Range,
				si+metrics.Epoch(cfg.Range.After), sj+metrics.Epoch(cfg.Range.After))
			if err != nil {
				return nil, err
			}
			dji, err := models[i].distance(e.Trace.Track, sj, si, cfg.Range,
				sj+metrics.Epoch(cfg.Range.After), si+metrics.Epoch(cfg.Range.After))
			if err != nil {
				return nil, err
			}
			// Symmetrize: either crisis's model may be consulted, so
			// average the two views.
			d := (dij + dji) / 2
			t.Full[i][j] = d
			t.Full[j][i] = d
		}
	}
	return t, nil
}

// Discrimination builds the distance ROC of a tensor's full pairwise
// distances (§5.1.1): same-type pairs should be close, different-type pairs
// far.
func Discrimination(t *Tensor) (stats.ROC, error) {
	var same, diff []float64
	n := len(t.Crises)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if t.Crises[i].Instance.Type == t.Crises[j].Instance.Type {
				same = append(same, t.Full[i][j])
			} else {
				diff = append(diff, t.Full[i][j])
			}
		}
	}
	if len(same) == 0 || len(diff) == 0 {
		return stats.ROC{}, errors.New("experiment: need both same- and different-type pairs")
	}
	return stats.DistanceROC(same, diff), nil
}
