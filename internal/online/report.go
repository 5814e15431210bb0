package online

import (
	"dcfp/internal/ident"
	"dcfp/internal/metrics"
	"dcfp/internal/sla"
)

// EpochReport is the result of feeding one epoch into the pipeline.
type EpochReport struct {
	Epoch        metrics.Epoch
	Status       sla.EpochStatus
	CrisisActive bool
	// CrisisStart is set while a crisis is active.
	CrisisStart metrics.Epoch
	// Advice is non-nil during the first ident.IdentificationEpochs
	// epochs of a crisis (once thresholds exist).
	Advice *Advice
	// Degraded marks an epoch whose machine coverage fell below the
	// configured floor (or that had no reporting machines at all): its
	// Status is computed over too small a sample to drive crisis
	// transitions, so the state machine held still.
	Degraded bool
	// Coverage is the fraction of expected machines that reported at least
	// one finite value this epoch.
	Coverage float64
	// Forecast is the early-warning stage's snapshot for this epoch; the
	// zero value (Enabled false) when the stage is off. A value type so
	// the steady-state path allocates nothing for it.
	Forecast ForecastSnapshot
}

// Advice is the identification output for one epoch of an active crisis.
type Advice struct {
	// CrisisID is the identifier of the active crisis.
	CrisisID string
	// Epoch is the absolute epoch index the advice was computed at, so
	// advisory log lines correlate with the rest of the epoch stream.
	Epoch metrics.Epoch
	// IdentEpoch is the 0-based identification epoch (0..4).
	IdentEpoch int
	// Candidates is how many labeled past crises were compared against.
	Candidates int
	// Emitted is the advised label: a past crisis's label, or
	// ident.Unknown when nothing matches below the threshold.
	Emitted string
	// Nearest and Distance describe the closest past crisis even when it
	// was not emitted (diagnostic context for the operator).
	Nearest   string
	Distance  float64
	Threshold float64
	// Degraded marks advice computed during an epoch whose input coverage
	// fell below the floor — the fingerprint window includes carried-forward
	// or sparse quantiles, so operators should weigh it accordingly.
	Degraded bool
	// Explanation is the full audit record behind this advice: every
	// candidate's distance with its top per-metric-quantile contributions,
	// the threshold context, and the vote sequence so far. Nil only when no
	// fingerprinter could be assembled (then the whole Advice is nil too).
	Explanation *ident.Explanation `json:"explanation,omitempty"`
	// Forecast is the forecast stage's snapshot at this advice's epoch,
	// nil when the stage is disabled.
	Forecast *ForecastSnapshot `json:"forecast,omitempty"`
}

// ForecastSnapshot is the early-warning stage's per-epoch output, carried on
// EpochReport (by value — the steady state allocates nothing) and, during
// crises, on Advice.
type ForecastSnapshot struct {
	// Enabled is false when the stage is off (every other field is zero).
	Enabled bool `json:"enabled"`
	// Epoch the snapshot describes.
	Epoch metrics.Epoch `json:"epoch"`
	// Risk is the fleet-level crisis probability within Horizon epochs:
	// the max of the four components, each clamped to [0, 1].
	Risk float64 `json:"risk"`
	// Trend, Near, Band and Centroid are the individual components.
	Trend    float64 `json:"trend"`
	Near     float64 `json:"near"`
	Band     float64 `json:"band"`
	Centroid float64 `json:"centroid"`
	// Warning is Risk >= WarnThreshold.
	Warning bool `json:"warning"`
	// WarnEpochs is the length of the open warning episode including this
	// epoch (0 when not warning).
	WarnEpochs int `json:"warn_epochs,omitempty"`
	// DetectionLead is set only on a detection epoch: how many epochs the
	// warning episode preceded the detection (0 = the crisis arrived
	// unforecast). Consumers feed it to Scoreboard.RecordForecast.
	DetectionLead int `json:"detection_lead,omitempty"`
	// FalseAlarm is set on the epoch a warning episode expired: Horizon
	// epochs passed since its last warning with no crisis.
	FalseAlarm bool `json:"false_alarm,omitempty"`
	// Models is how many per-label centroid forecasters are trained.
	Models int `json:"models"`
	// Degraded marks a snapshot carried forward through a degraded epoch
	// (too little coverage to update the risk estimate).
	Degraded bool `json:"degraded,omitempty"`
}

// ForecastState is the part of the shell's forecast stage a checkpoint keeps.
// It rides on State only so that a checkpoint is one gob image; Step never
// reads it. The centroid models are not in it: they retrain lazily from the
// restored track and crisis history on the first epoch after a restore.
type ForecastState struct {
	// FracHist is the ring of recent violating-machine fractions feeding
	// the trend slope.
	FracHist []float64
	FracPos  int
	FracN    int

	// Warning-episode state: the first and latest warning epoch of the
	// open episode, and whether one awaits hit/false-alarm resolution.
	WarnStart metrics.Epoch
	LastWarn  metrics.Epoch
	Pending   bool

	Warnings    uint64
	FalseAlarms uint64

	Last ForecastSnapshot
}
