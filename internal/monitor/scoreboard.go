package monitor

import (
	"sort"
	"sync"

	"dcfp/internal/ident"
	"dcfp/internal/telemetry"
)

// Scoreboard is the live accuracy ledger of the online identification loop:
// every operator diagnosis filed through ResolveCrisis is scored against the
// advice the monitor emitted while the crisis was still open, using exactly
// the §4.3 criteria the offline evaluation uses (stable sequence, exact
// label for known crises, all-x for unknown ones). It maintains a rolling
// confusion matrix over (emitted, truth) labels, known/unknown accuracy, a
// time-to-stable-identification histogram, and per-crisis-type recall —
// exported as dcfp_ident_* metrics and served by cmd/dcfpd's /accuracy
// endpoint.
//
// Safe for concurrent use; feedback arrives from operator-facing HTTP
// handlers, not the epoch hot path.
type Scoreboard struct {
	mu sync.Mutex

	knownTotal     uint64
	knownCorrect   uint64
	unknownTotal   uint64
	unknownCorrect uint64
	confusion      map[[2]string]uint64 // [emitted, truth] -> count
	perLabel       map[string]*labelTally
	ttiCounts      []uint64 // index = epochs to first correct label

	// Forecast ledger: detections the forecast stage warned about ahead of
	// time (with their lead distribution) vs. warning episodes that expired
	// without a crisis. Leads surface in the TTI histogram as negative
	// observations — identification at epoch -k meaning "k epochs before
	// the SLA rule even fired".
	forecastHits  uint64
	forecastFalse uint64
	leadCounts    []uint64 // index = lead-1, clamped to MaxForecastLead

	reg *telemetry.Registry
	tel *scoreboardMetrics
}

// MaxForecastLead caps the per-lead histogram resolution: leads beyond it
// all land in the deepest bucket.
const MaxForecastLead = 8

type labelTally struct {
	total   uint64
	correct uint64
}

// scoreboardMetrics holds the fixed-label handles; per-label series
// (confusion cells, recall gauges) are registered on first use.
type scoreboardMetrics struct {
	feedbackKnown, feedbackUnknown, forecastHits, forecastFalse *telemetry.Counter
	accKnown, accUnknown                                        *telemetry.Gauge
	tti                                                         *telemetry.Histogram
}

// NewScoreboard builds a scoreboard, optionally exporting dcfp_ident_*
// metrics into r (nil disables the export, never the ledger).
func NewScoreboard(r *telemetry.Registry) *Scoreboard {
	s := &Scoreboard{
		confusion:  make(map[[2]string]uint64),
		perLabel:   make(map[string]*labelTally),
		ttiCounts:  make([]uint64, ident.IdentificationEpochs),
		leadCounts: make([]uint64, MaxForecastLead),
		reg:        r,
	}
	if r != nil {
		s.tel = &scoreboardMetrics{
			feedbackKnown: r.Counter("dcfp_ident_feedback_total",
				"Operator diagnoses scored, by whether the crisis was known at identification time.",
				telemetry.Label{Key: "kind", Value: "known"}),
			feedbackUnknown: r.Counter("dcfp_ident_feedback_total",
				"Operator diagnoses scored, by whether the crisis was known at identification time.",
				telemetry.Label{Key: "kind", Value: "unknown"}),
			accKnown: r.Gauge("dcfp_ident_accuracy",
				"Rolling identification accuracy over scored diagnoses (§4.3 criteria).",
				telemetry.Label{Key: "kind", Value: "known"}),
			accUnknown: r.Gauge("dcfp_ident_accuracy",
				"Rolling identification accuracy over scored diagnoses (§4.3 criteria).",
				telemetry.Label{Key: "kind", Value: "unknown"}),
			tti: r.Histogram("dcfp_ident_tti_epochs",
				"Epochs from crisis detection to the first correct label, over correct known cases; negative observations are forecast leads (warned that many epochs before detection).",
				ttiBuckets()),
			forecastHits: r.Counter("dcfp_ident_forecast_total",
				"Resolved forecast warning episodes, by outcome.",
				telemetry.Label{Key: "outcome", Value: "hit"}),
			forecastFalse: r.Counter("dcfp_ident_forecast_total",
				"Resolved forecast warning episodes, by outcome.",
				telemetry.Label{Key: "outcome", Value: "false_alarm"}),
		}
	}
	return s
}

// ttiBuckets spans pre-detection forecast leads (negative epochs, deepest
// first) through the identification window: -MaxForecastLead..-1 then
// 0..IdentificationEpochs-1. A pre-detected crisis observes its lead as a
// negative TTI — identified before the SLA rule fired.
func ttiBuckets() []float64 {
	b := make([]float64, 0, MaxForecastLead+ident.IdentificationEpochs)
	for i := -MaxForecastLead; i < ident.IdentificationEpochs; i++ {
		b = append(b, float64(i))
	}
	return b
}

// Feedback is one scored diagnosis: the vote sequence the monitor emitted
// for the crisis, the operator's truth label, and whether the truth was
// known (a labeled crisis of that type already existed) when identification
// ran.
type Feedback struct {
	CrisisID string   `json:"crisis_id"`
	Truth    string   `json:"truth"`
	Known    bool     `json:"known"`
	Votes    []string `json:"votes"`
}

// Record scores one diagnosis and folds it into the rolling state.
func (s *Scoreboard) Record(fb Feedback) ident.Outcome {
	o := ident.Evaluate(ident.Case{Seq: fb.Votes, Truth: fb.Truth, Known: fb.Known})
	s.mu.Lock()
	s.apply(fb, o)
	s.export(fb, o)
	s.mu.Unlock()
	return o
}

// apply mutates the ledger; caller holds mu.
func (s *Scoreboard) apply(fb Feedback, o ident.Outcome) {
	s.confusion[[2]string{o.Emitted, fb.Truth}]++
	if fb.Known {
		s.knownTotal++
		t := s.perLabel[fb.Truth]
		if t == nil {
			t = &labelTally{}
			s.perLabel[fb.Truth] = t
		}
		t.total++
		if o.Correct {
			s.knownCorrect++
			t.correct++
			if o.TTIEpochs >= 0 && o.TTIEpochs < len(s.ttiCounts) {
				s.ttiCounts[o.TTIEpochs]++
			}
		}
	} else {
		s.unknownTotal++
		if o.Correct {
			s.unknownCorrect++
		}
	}
}

// export pushes the increment into the metric handles; caller holds mu.
func (s *Scoreboard) export(fb Feedback, o ident.Outcome) {
	if s.tel == nil {
		return
	}
	if fb.Known {
		s.tel.feedbackKnown.Inc()
		if o.Correct && o.TTIEpochs >= 0 {
			s.tel.tti.Observe(float64(o.TTIEpochs))
		}
	} else {
		s.tel.feedbackUnknown.Inc()
	}
	s.reg.Counter("dcfp_ident_confusion_total",
		"Scored diagnoses by (emitted, truth) label pair.",
		telemetry.Label{Key: "emitted", Value: o.Emitted},
		telemetry.Label{Key: "truth", Value: fb.Truth}).Inc()
	s.exportDerived()
}

// exportDerived refreshes the accuracy and recall gauges; caller holds mu.
func (s *Scoreboard) exportDerived() {
	if s.tel == nil {
		return
	}
	s.tel.accKnown.Set(ratio(s.knownCorrect, s.knownTotal))
	s.tel.accUnknown.Set(ratio(s.unknownCorrect, s.unknownTotal))
	for label, t := range s.perLabel {
		s.reg.Gauge("dcfp_ident_recall",
			"Fraction of known crises of each type identified correctly.",
			telemetry.Label{Key: "label", Value: label}).Set(ratio(t.correct, t.total))
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// RecordForecast folds one resolved warning episode into the ledger: a hit
// (the forecast warned leadEpochs before a detection — recorded as a
// negative TTI observation) or a false alarm (the episode expired without a
// crisis; leadEpochs is ignored). Hits with a non-positive lead are counted
// but observe no TTI (the warning did not actually precede the detection).
func (s *Scoreboard) RecordForecast(leadEpochs int, hit bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !hit {
		s.forecastFalse++
		if s.tel != nil {
			s.tel.forecastFalse.Inc()
		}
		return
	}
	s.forecastHits++
	if s.tel != nil {
		s.tel.forecastHits.Inc()
	}
	if leadEpochs < 1 {
		return
	}
	s.leadCounts[min(leadEpochs, MaxForecastLead)-1]++
	if s.tel != nil {
		s.tel.tti.Observe(float64(-leadEpochs))
	}
}

// ConfusionCell is one (emitted, truth) cell of the confusion matrix.
type ConfusionCell struct {
	Emitted string `json:"emitted"`
	Truth   string `json:"truth"`
	Count   uint64 `json:"count"`
}

// LabelScore is the per-crisis-type recall of one truth label.
type LabelScore struct {
	Label   string  `json:"label"`
	Total   uint64  `json:"total"`
	Correct uint64  `json:"correct"`
	Recall  float64 `json:"recall"`
}

// ScoreboardState is the serializable snapshot of the scoreboard: the
// /accuracy payload, and the image checkpointed by cmd/dcfpd. Derived
// fields (accuracies, recalls) are recomputed from the counts on restore.
type ScoreboardState struct {
	Resolved        uint64          `json:"resolved"`
	KnownTotal      uint64          `json:"known_total"`
	KnownCorrect    uint64          `json:"known_correct"`
	UnknownTotal    uint64          `json:"unknown_total"`
	UnknownCorrect  uint64          `json:"unknown_correct"`
	KnownAccuracy   float64         `json:"known_accuracy"`
	UnknownAccuracy float64         `json:"unknown_accuracy"`
	Confusion       []ConfusionCell `json:"confusion"`
	PerLabel        []LabelScore    `json:"per_label"`
	// TTIEpochs[k] counts correct known cases first labeled correctly at
	// identification epoch k.
	TTIEpochs []uint64 `json:"tti_epochs"`
	// ForecastHits / ForecastFalseAlarms count resolved warning episodes:
	// warnings that ran into a detection vs. ones that expired quiet.
	ForecastHits        uint64 `json:"forecast_hits"`
	ForecastFalseAlarms uint64 `json:"forecast_false_alarms"`
	// ForecastLeadEpochs[k] counts pre-detected crises warned k+1 epochs
	// ahead (the negative wing of the TTI histogram).
	ForecastLeadEpochs []uint64 `json:"forecast_lead_epochs"`
}

// State snapshots the scoreboard. Slices are always non-nil so the JSON
// payload renders [] rather than null.
func (s *Scoreboard) State() ScoreboardState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ScoreboardState{
		Resolved:            s.knownTotal + s.unknownTotal,
		KnownTotal:          s.knownTotal,
		KnownCorrect:        s.knownCorrect,
		UnknownTotal:        s.unknownTotal,
		UnknownCorrect:      s.unknownCorrect,
		KnownAccuracy:       ratio(s.knownCorrect, s.knownTotal),
		UnknownAccuracy:     ratio(s.unknownCorrect, s.unknownTotal),
		Confusion:           make([]ConfusionCell, 0, len(s.confusion)),
		PerLabel:            make([]LabelScore, 0, len(s.perLabel)),
		TTIEpochs:           append([]uint64{}, s.ttiCounts...),
		ForecastHits:        s.forecastHits,
		ForecastFalseAlarms: s.forecastFalse,
		ForecastLeadEpochs:  append([]uint64{}, s.leadCounts...),
	}
	for k, n := range s.confusion {
		st.Confusion = append(st.Confusion, ConfusionCell{Emitted: k[0], Truth: k[1], Count: n})
	}
	sort.Slice(st.Confusion, func(i, j int) bool {
		a, b := st.Confusion[i], st.Confusion[j]
		if a.Truth != b.Truth {
			return a.Truth < b.Truth
		}
		return a.Emitted < b.Emitted
	})
	for label, t := range s.perLabel {
		st.PerLabel = append(st.PerLabel, LabelScore{
			Label: label, Total: t.total, Correct: t.correct,
			Recall: ratio(t.correct, t.total),
		})
	}
	sort.Slice(st.PerLabel, func(i, j int) bool { return st.PerLabel[i].Label < st.PerLabel[j].Label })
	return st
}

// SetState replaces the ledger with a previously snapshotted state (daemon
// restart from checkpoint) and re-exports the metrics so the gauges pick up
// where they left off. Counter-style metrics restart from the restored
// counts; Prometheus rate queries treat that as the usual counter reset.
func (s *Scoreboard) SetState(st ScoreboardState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.knownTotal = st.KnownTotal
	s.knownCorrect = st.KnownCorrect
	s.unknownTotal = st.UnknownTotal
	s.unknownCorrect = st.UnknownCorrect
	s.confusion = make(map[[2]string]uint64, len(st.Confusion))
	for _, c := range st.Confusion {
		s.confusion[[2]string{c.Emitted, c.Truth}] = c.Count
	}
	s.perLabel = make(map[string]*labelTally, len(st.PerLabel))
	for _, l := range st.PerLabel {
		s.perLabel[l.Label] = &labelTally{total: l.Total, correct: l.Correct}
	}
	s.ttiCounts = make([]uint64, ident.IdentificationEpochs)
	copy(s.ttiCounts, st.TTIEpochs)
	s.forecastHits = st.ForecastHits
	s.forecastFalse = st.ForecastFalseAlarms
	s.leadCounts = make([]uint64, MaxForecastLead)
	copy(s.leadCounts, st.ForecastLeadEpochs)
	if s.tel != nil {
		for _, c := range st.Confusion {
			s.reg.Counter("dcfp_ident_confusion_total",
				"Scored diagnoses by (emitted, truth) label pair.",
				telemetry.Label{Key: "emitted", Value: c.Emitted},
				telemetry.Label{Key: "truth", Value: c.Truth}).Add(c.Count)
		}
		s.tel.feedbackKnown.Add(st.KnownTotal)
		s.tel.feedbackUnknown.Add(st.UnknownTotal)
		for k, n := range s.ttiCounts {
			for i := uint64(0); i < n; i++ {
				s.tel.tti.Observe(float64(k))
			}
		}
		s.tel.forecastHits.Add(s.forecastHits)
		s.tel.forecastFalse.Add(s.forecastFalse)
		for k, n := range s.leadCounts {
			for i := uint64(0); i < n; i++ {
				s.tel.tti.Observe(float64(-(k + 1)))
			}
		}
		s.exportDerived()
	}
}
