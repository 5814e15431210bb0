// The online forecast stage: the ROADMAP's early-warning item, built in the
// spirit of the paper's §7 forecasting direction and DC-Prophet. Each epoch
// it rolls four independent risk components into one fleet-level "crisis
// probability within Horizon epochs" signal:
//
//   - trend: the violating-machine fraction's recent slope, projected
//     Horizon epochs ahead and scaled against the crisis fraction — a
//     crisis that is building linearly shows here first;
//   - near: the fraction of machines already within NearFactor of any KPI
//     SLA bound — backlog building toward the threshold before violations;
//   - band: the fraction of summary quantile cells outside their hot/cold
//     thresholds — crisis side-effects ripple through non-KPI metrics
//     before the KPIs themselves breach (the §7 observation);
//   - centroid: the offline internal/forecast nearest-centroid detectors,
//     trained per crisis label once enough labeled history exists, scoring
//     the live epoch fingerprint.
//
// Risk is the max of the components (any sufficient early signal should
// warn). Warning episodes have hit/false-alarm accounting: an episode that
// runs into a detection within Horizon epochs is a hit with a lead, one
// that goes quiet for more than Horizon epochs is a false alarm. The
// Scoreboard folds both into the §4.3 ledger, with leads recorded as
// negative time-to-identification.
package monitor

import (
	"cmp"
	"fmt"

	"dcfp/internal/core"
	"dcfp/internal/forecast"
	"dcfp/internal/metrics"
	"dcfp/internal/online"
	"dcfp/internal/sla"
	"dcfp/internal/telemetry"
)

// ForecastConfig shapes the monitor's online forecast stage.
type ForecastConfig struct {
	// Enabled turns the stage on; the zero value keeps the monitor's hot
	// path exactly as before (no clocks, no extra work).
	Enabled bool
	// Horizon is the prediction window in epochs: risk estimates the
	// probability of a crisis within the next Horizon epochs, and a
	// warning episode more than Horizon epochs quiet is a false alarm.
	// Default 8 (two hours).
	Horizon int
	// WarnThreshold is the risk level at or above which the stage raises a
	// warning. Default 0.5.
	WarnThreshold float64
	// TrendWindow is how many recent epochs of the violating-machine
	// fraction feed the slope projection. Default 8.
	TrendWindow int
	// NearFactor is the fraction of a KPI's SLA bound beyond which a
	// machine counts as near-violating. Default 0.8.
	NearFactor float64
	// BandBaseline and BandCrisis anchor the band-pressure normalization:
	// the fraction of out-of-band summary cells maps linearly from
	// [BandBaseline, BandCrisis] onto risk [0, 1]. With 2nd/98th-percentile
	// thresholds ~4% of cells are out-of-band in normal operation, so the
	// defaults are 0.05 and 0.12.
	BandBaseline float64
	BandCrisis   float64
	// Model configures the per-label nearest-centroid forecasters; the
	// zero value resolves to forecast.DefaultConfig().
	Model forecast.Config
}

// DefaultForecastConfig returns the stage's defaults, enabled.
func DefaultForecastConfig() ForecastConfig {
	return ForecastConfig{
		Enabled:       true,
		Horizon:       8,
		WarnThreshold: 0.5,
		TrendWindow:   8,
		NearFactor:    0.8,
		BandBaseline:  0.05,
		BandCrisis:    0.12,
		Model:         forecast.DefaultConfig(),
	}
}

// setDefaults fills zero fields; validate rejects nonsense.
func (c *ForecastConfig) setDefaults() {
	d := DefaultForecastConfig()
	c.Horizon = cmp.Or(c.Horizon, d.Horizon)
	c.WarnThreshold = cmp.Or(c.WarnThreshold, d.WarnThreshold)
	c.TrendWindow = cmp.Or(c.TrendWindow, d.TrendWindow)
	c.NearFactor = cmp.Or(c.NearFactor, d.NearFactor)
	c.BandBaseline = cmp.Or(c.BandBaseline, d.BandBaseline)
	c.BandCrisis = cmp.Or(c.BandCrisis, d.BandCrisis)
	c.Model = cmp.Or(c.Model, d.Model)
}

func (c ForecastConfig) validate() error {
	if c.Horizon < 1 {
		return fmt.Errorf("monitor: forecast horizon %d must be positive", c.Horizon)
	}
	if c.WarnThreshold <= 0 || c.WarnThreshold > 1 {
		return fmt.Errorf("monitor: forecast warn threshold %v out of (0,1]", c.WarnThreshold)
	}
	if c.TrendWindow < 2 {
		return fmt.Errorf("monitor: forecast trend window %d must be at least 2", c.TrendWindow)
	}
	if c.NearFactor <= 0 || c.NearFactor >= 1 {
		return fmt.Errorf("monitor: forecast near factor %v out of (0,1)", c.NearFactor)
	}
	if c.BandBaseline < 0 || c.BandCrisis <= c.BandBaseline {
		return fmt.Errorf("monitor: forecast band anchors [%v, %v] must be increasing and non-negative",
			c.BandBaseline, c.BandCrisis)
	}
	return nil
}

// forecastStage holds the stage's state inside the Monitor.
type forecastStage struct {
	cfg ForecastConfig

	online.ForecastState

	// Per-label centroid forecasters, lazily retrained when the thresholds
	// generation or the labeled-crisis census changes.
	models      []*forecast.Forecaster
	modelLabels []string
	fpr         *core.Fingerprinter
	trainedGen  uint64
	trainedN    int

	fpBuf  []float64 // epoch-fingerprint scratch
	rowBuf []float64 // the epoch's summary as a track row
}

func newForecastStage(cfg ForecastConfig) *forecastStage {
	return &forecastStage{
		cfg: cfg,
		ForecastState: online.ForecastState{
			FracHist:  make([]float64, cfg.TrendWindow),
			WarnStart: -1,
			LastWarn:  -1,
		},
	}
}

// forecastMetrics holds the stage's telemetry handles.
type forecastMetrics struct {
	risk, trend, near, band, centroid, warning, models *telemetry.Gauge
	warnings, falseAlarms                              *telemetry.Counter
}

func newForecastMetrics(r *telemetry.Registry) *forecastMetrics {
	if r == nil {
		return nil
	}
	component := func(c string) *telemetry.Gauge {
		return r.Gauge("dcfp_forecast_component",
			"Individual forecast risk components, each clamped to [0, 1].",
			telemetry.Label{Key: "component", Value: c})
	}
	return &forecastMetrics{
		risk: r.Gauge("dcfp_forecast_risk",
			"Fleet-level crisis probability within the forecast horizon (max of the components)."),
		trend:    component("trend"),
		near:     component("near"),
		band:     component("band"),
		centroid: component("centroid"),
		warning: r.Gauge("dcfp_forecast_warning",
			"1 while the forecast stage is warning of an impending crisis, else 0."),
		models: r.Gauge("dcfp_forecast_models_trained",
			"Per-label nearest-centroid forecasters currently trained."),
		warnings: r.Counter("dcfp_forecast_warnings_total",
			"Warning episodes opened by the forecast stage."),
		falseAlarms: r.Counter("dcfp_forecast_false_alarms_total",
			"Warning episodes that expired without a crisis within the horizon."),
	}
}

// forecastObserve runs the stage for one non-degraded epoch: e is the epoch
// index, status the merged SLA status, summary the epoch's quantile summary,
// and m.cur the epoch's sanitized retained samples, reporting of them live.
// crisisActive reflects the state machine BEFORE this epoch's transition —
// warnings raised while a crisis is already open are not "early" and feed no
// episode bookkeeping. Steady state allocates nothing.
func (m *Monitor) forecastObserve(e metrics.Epoch, status sla.EpochStatus, summary [][3]float64, reporting int, crisisActive bool) ForecastSnapshot {
	s := m.fc
	snap := ForecastSnapshot{Enabled: true, Epoch: e}

	// Trend: least-squares slope of the recent violating fraction,
	// projected Horizon epochs out, scaled against the crisis fraction.
	frac := 0.0
	if status.Machines > 0 {
		frac = float64(status.ViolatingAny) / float64(status.Machines)
	}
	s.FracHist[s.FracPos] = frac
	s.FracPos = (s.FracPos + 1) % len(s.FracHist)
	if s.FracN < len(s.FracHist) {
		s.FracN++
	}
	proj := frac + s.trendSlope()*float64(s.cfg.Horizon)
	snap.Trend = clamp01(proj / m.cfg.SLA.CrisisFraction)

	// Near: machines already inside NearFactor of any KPI bound.
	near, live := 0, m.cur.Live()
	for i, l := range live {
		if !l {
			continue
		}
		for _, k := range m.cfg.SLA.KPIs {
			if m.cur.X[k.Metric*len(live)+i] > s.cfg.NearFactor*k.Threshold {
				near++
				break
			}
		}
	}
	if reporting > 0 {
		snap.Near = clamp01(float64(near) / float64(reporting) / m.cfg.SLA.CrisisFraction)
	}

	// Band: fraction of summary quantile cells outside their hot/cold
	// thresholds, normalized between the baseline and crisis anchors.
	if th := m.st.Thresholds; th != nil {
		out, cells := 0, 0
		for mi := range summary {
			for qi := 0; qi < metrics.NumQuantiles; qi++ {
				cells++
				if th.State(mi, qi, summary[mi][qi]) != 0 {
					out++
				}
			}
		}
		if cells > 0 {
			bandFrac := float64(out) / float64(cells)
			snap.Band = clamp01((bandFrac - s.cfg.BandBaseline) / (s.cfg.BandCrisis - s.cfg.BandBaseline))
		}
	}

	// Centroid: the trained per-label forecasters scoring this epoch's
	// fingerprint. Training is lazy and off the steady path.
	s.maybeRetrain(m)
	snap.Models = len(s.models)
	if len(s.models) > 0 {
		s.rowBuf = s.rowBuf[:0]
		for _, q := range summary {
			s.rowBuf = append(s.rowBuf, q[:]...)
		}
		if fp, err := s.fpr.EpochFingerprintInto(s.rowBuf, s.fpBuf); err == nil {
			s.fpBuf = fp
			for _, fc := range s.models {
				if warn, err := fc.Warns(fp); err == nil && warn {
					snap.Centroid = 1
					break
				}
			}
		}
	}

	snap.Risk = max(snap.Trend, snap.Near, snap.Band, snap.Centroid)
	snap.Warning = snap.Risk >= s.cfg.WarnThreshold

	// Episode bookkeeping, skipped while a crisis is already open.
	if !crisisActive {
		if s.Pending && e-s.LastWarn > metrics.Epoch(s.cfg.Horizon) {
			s.Pending = false
			s.FalseAlarms++
			snap.FalseAlarm = true
			m.events.Event("forecast.false_alarm",
				"epoch", int64(e), "warn_start", int64(s.WarnStart), "last_warn", int64(s.LastWarn))
			if m.fcTel != nil {
				m.fcTel.falseAlarms.Inc()
			}
		}
		if snap.Warning {
			if !s.Pending {
				s.Pending = true
				s.WarnStart = e
				s.Warnings++
				m.events.Event("forecast.warning",
					"epoch", int64(e), "risk", snap.Risk,
					"trend", snap.Trend, "near", snap.Near,
					"band", snap.Band, "centroid", snap.Centroid)
				if m.fcTel != nil {
					m.fcTel.warnings.Inc()
				}
			}
			s.LastWarn = e
		}
	}
	if s.Pending && snap.Warning {
		snap.WarnEpochs = int(e-s.WarnStart) + 1
	}

	if m.fcTel != nil {
		m.fcTel.risk.Set(snap.Risk)
		m.fcTel.trend.Set(snap.Trend)
		m.fcTel.near.Set(snap.Near)
		m.fcTel.band.Set(snap.Band)
		m.fcTel.centroid.Set(snap.Centroid)
		m.fcTel.warning.SetInt(boolToGauge(snap.Warning))
		m.fcTel.models.SetInt(int64(len(s.models)))
	}
	s.Last = snap
	return snap
}

// resolveDetection closes the open warning episode against a detection at
// epoch e: a hit when the episode is still live (last warning within
// Horizon epochs) and actually preceded the detection. The returned lead is
// the epochs from the episode's first warning to the detection; callers read
// it only on a hit.
func (s *forecastStage) resolveDetection(e metrics.Epoch) (lead int, hit bool) {
	if s == nil || !s.Pending {
		return 0, false
	}
	s.Pending = false
	lead = int(e - s.WarnStart)
	return lead, e-s.LastWarn <= metrics.Epoch(s.cfg.Horizon) && lead >= 1
}

// trendSlope is the least-squares slope of the fraction ring in
// chronological order (fractions per epoch); 0 until two points exist.
func (s *forecastStage) trendSlope() float64 {
	n := s.FracN
	if n < 2 {
		return 0
	}
	start := (s.FracPos - n + len(s.FracHist)) % len(s.FracHist)
	// x = 0..n-1; slope = (n·Σxy − Σx·Σy) / (n·Σx² − (Σx)²).
	var sumX, sumY, sumXY, sumXX float64
	for i := 0; i < n; i++ {
		x := float64(i)
		y := s.FracHist[(start+i)%len(s.FracHist)]
		sumX += x
		sumY += y
		sumXY += x * y
		sumXX += x * x
	}
	den := float64(n)*sumXX - sumX*sumX
	if den == 0 {
		return 0
	}
	return (float64(n)*sumXY - sumX*sumY) / den
}

// maybeRetrain rebuilds the per-label centroid forecasters when the
// thresholds generation or the labeled-crisis census changed. Labels with
// fewer than Model.MinCrises crises train nothing; training failures (e.g.
// a type with no early signs, MinCentroidNorm) are skipped silently — the
// other components still cover those types.
func (s *forecastStage) maybeRetrain(m *Monitor) {
	if m.st.Thresholds == nil {
		return
	}
	_, labeled := m.KnownCrises()
	if s.trainedGen == m.st.ThGen && s.trainedN == labeled && s.fpr != nil {
		return
	}
	s.trainedGen = m.st.ThGen
	s.trainedN = labeled
	s.models = s.models[:0]
	s.modelLabels = s.modelLabels[:0]
	f, err := m.st.Fingerprinter()
	if err != nil {
		s.fpr = nil
		return
	}
	s.fpr = f
	if cap(s.fpBuf) < f.Size() {
		s.fpBuf = make([]float64, 0, f.Size())
	}
	byLabel := make(map[string][]metrics.Epoch)
	for _, p := range m.st.Crises {
		if p.State.Label != "" {
			byLabel[p.State.Label] = append(byLabel[p.State.Label], p.State.Start)
		}
	}
	for label, starts := range byLabel {
		if len(starts) < s.cfg.Model.MinCrises {
			continue
		}
		fc, err := forecast.Train(f, m.st.Track, starts, s.cfg.Model)
		if err != nil {
			continue
		}
		s.models = append(s.models, fc)
		s.modelLabels = append(s.modelLabels, label)
	}
}

// restore applies a checkpointed state; a nil one (a checkpoint written with
// the stage off) resets to cold. A ring sized for a different TrendWindow
// restarts empty rather than being rejected. Models retrain lazily against
// the restored track.
func (s *forecastStage) restore(c *online.ForecastState) {
	if s == nil {
		return
	}
	fresh := newForecastStage(s.cfg)
	if c != nil {
		ring := fresh.FracHist
		fresh.ForecastState = *c
		if len(c.FracHist) != len(ring) || c.FracPos < 0 || c.FracPos >= len(ring) {
			fresh.FracHist, fresh.FracPos, fresh.FracN = ring, 0, 0
		}
		fresh.FracN = min(fresh.FracN, len(ring))
	}
	*s = *fresh
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
