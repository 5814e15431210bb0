// Package online is the paper's online pipeline as one step over the epoch
// stream: the §3.3 hot/cold threshold refresh over a crisis-free moving
// window, the §4.1 crisis rule, §3.4 relevant-metric selection when a crisis
// ends, and §3.5/§5.3 identification during a crisis's first epochs, with
// past crises stored as windows of the quantile track (§6.3).
//
// State.Step takes one epoch's quantile summary, SLA status, degraded flag
// and retained machine samples, and returns the epoch report with the facts
// a shell needs to publish it. It reads no clock and knows nothing of
// telemetry: package monitor is its shell, which ingests, summarizes and
// evaluates the epoch, runs the forecast stage, and turns the facts into
// spans, series and events. State's exported fields are what a checkpoint
// keeps (see Image and Restore).
package online

import (
	"errors"
	"fmt"

	"dcfp/internal/core"
	"dcfp/internal/ident"
	"dcfp/internal/logreg"
	"dcfp/internal/metrics"
	"dcfp/internal/sla"
)

// Config holds the pipeline's parameters; monitor.Config documents each.
type Config struct {
	Width                  int // the catalog's metric count
	Thresholds             metrics.ThresholdConfig
	Selection              core.SelectionConfig
	Alpha                  float64
	ThresholdRefreshEpochs int
	RawPad                 int
	MinEpochsForThresholds int
}

// crisisPool is how many recent crises' metric rankings feed the relevant
// set (§3.4), and explainTopK how many per-metric-quantile contributions an
// identification explanation keeps per candidate (the rest is folded into
// the residual).
const (
	crisisPool  = 20
	explainTopK = 10
)

// SummaryRange is the crisis summary window, the paper's [-30 min, +60 min]
// (§6.1). It is fixed, so a crisis restored from a checkpoint is re-read
// under the window it was stored with.
var SummaryRange = core.DefaultSummaryRange()

// State is the pipeline's state between epochs. Its exported fields, in this
// order, are the checkpoint's version-2 payload.
type State struct {
	// InCrisis and Degraded hold one flag per tracked epoch, so the track's
	// length is the next epoch's index. Degraded marks an epoch below the
	// coverage floor.
	InCrisis   []bool
	Degraded   []bool
	Track      *metrics.QuantileTrack
	Thresholds *metrics.Thresholds
	LastThresh metrics.Epoch
	// ThGen counts successful threshold refreshes. It tags identify's
	// fingerprinters so the stored crises' memos can tell discretization
	// windows apart (0 = no thresholds yet, memos off).
	ThGen uint64

	// Expected and LastCoverage are the shell's coverage denominator and
	// latest coverage; Step never reads them.
	Expected     int
	LastCoverage float64

	// Crises holds every crisis record, oldest first; Open says the newest
	// is open. Samples holds the open crisis's feature-selection samples in
	// a checkpoint image only: in memory they are in fs.
	Crises  []Crisis
	Open    bool
	Samples Retained
	Calm    int // consecutive non-crisis epochs while a crisis is open

	// Ring holds the pre-crisis epochs' samples for feature selection, one
	// retained epoch per slot (no slot = never filled). An idle epoch swaps
	// its samples into the ring and takes the evicted slot's storage back, so
	// anything that outlives a slot (feature-selection samples) copies what
	// it keeps.
	Ring    []Retained
	RingPos int

	Forecast *ForecastState // the shell's forecast stage; nil when it is off

	cfg Config
	fs  core.SampleBuffer // the open crisis's samples, one block per epoch
	// labels interns the candidate labels kept records refer to.
	labels   []string
	labelIdx map[string]int32
	// thrMemo carries identify's threshold between advice epochs.
	thrMemo thresholdMemo
	posBuf  []bool
}

// Crisis is one crisis record, open or past. A stored crisis (§6.3) is a
// window of the quantile track: the epochs of its summary window up to the
// one it closed at, from which its fingerprint is recomputed under whatever
// thresholds and relevant metrics are current.
type Crisis struct {
	State CrisisState
	// Expl holds the crisis's identification audit records in a checkpoint
	// image only: in memory they are in kept.
	Expl []*ident.Explanation

	id string // CrisisID of its index in State.Crises, plus one
	// memo keeps a stored crisis's fingerprint within one (thresholds
	// generation, relevant set) window.
	memo core.FingerprintMemo
	kept []keptExplanation
}

// CrisisState is the part of a crisis record that is neither derived nor
// rebuilt.
type CrisisState struct {
	Label string // "" until operators resolve it
	Start metrics.Epoch
	// Closed is the epoch the crisis closed at if it was stored, which needs
	// thresholds to exist then; else -1, also while it is open.
	Closed metrics.Epoch
	Top    []int    // the cached per-crisis top-K metric selection
	Votes  []string // the labels emitted, over which §4.3 stability is judged
}

// ID is the crisis's identifier.
func (c *Crisis) ID() string { return c.id }

// CrisisID names crisis number n.
func CrisisID(n int) string { return fmt.Sprintf("crisis-%03d", n) }

// New returns the state before the first epoch.
func New(cfg Config) (*State, error) {
	track, err := metrics.NewQuantileTrack(cfg.Width)
	if err != nil {
		return nil, err
	}
	return &State{Track: track, Ring: make([]Retained, cfg.RawPad), cfg: cfg}, nil
}

// Hook receives the step's stage boundaries, so that a shell can trace and
// time them: "thresholds" (§3.3), "selection" (§3.4) and "identify" (§3.5,
// holding "fingerprint", "match" and "advise"). Stages nest, and End names
// the innermost stage begun.
type Hook interface {
	Begin(stage string)
	End(stage string)
}

// nopHook is the Hook of a step nobody traces.
type nopHook struct{}

func (nopHook) Begin(string) {}
func (nopHook) End(string)   {}

// Result is what one step did: the epoch's report, and the facts a shell
// publishes.
type Result struct {
	Report *EpochReport
	// Crisis is the crisis the step opened, continued or closed, nil when
	// none; valid until the next step. Detected says it opened at this
	// epoch, Ended that it closed, Stored that it closed into the store.
	Crisis                  *Crisis
	Detected, Ended, Stored bool
	// Selection is the §3.4 selection a stored crisis ran.
	Selection Selection
	// Hits and Misses count the stored-crisis fingerprint memo lookups of
	// this epoch's identification.
	Hits, Misses uint64
}

// Selection describes one per-crisis feature selection.
type Selection struct {
	Rows, Selected int
	Stats          logreg.PathStats
	Err            error
}

// Epoch is the next epoch's index.
func (s *State) Epoch() metrics.Epoch { return metrics.Epoch(s.Track.NumEpochs()) }

// Active returns the open crisis, nil when there is none.
func (s *State) Active() *Crisis {
	if s.Open {
		return &s.Crises[len(s.Crises)-1]
	}
	return nil
}

// Step observes one epoch: summary is its quantile summary, status its SLA
// status, degraded whether its coverage fell below the floor, and ret its
// retained samples, sanitized (Retained.Finish). An idle epoch swaps ret's
// storage with the ring slot it evicts. h may be nil.
func (s *State) Step(summary [][3]float64, status sla.EpochStatus, degraded bool, ret *Retained, h Hook) (Result, error) {
	if h == nil {
		h = nopHook{}
	}
	e := s.Epoch()
	if err := s.Track.AppendEpoch(summary); err != nil {
		return Result{}, err
	}
	s.InCrisis = append(s.InCrisis, status.InCrisis)
	s.Degraded = append(s.Degraded, degraded)
	res := Result{Report: &EpochReport{Epoch: e, Status: status, Degraded: degraded}}

	// Crisis episode state machine: enter on the first violating epoch,
	// leave after two consecutive calm epochs (the detector's merge gap).
	// Degraded epochs freeze it entirely: too few machines reported to
	// either declare a crisis (spurious start on a sliver of survivors) or
	// to count as a calm epoch toward ending one.
	switch open := s.Open; {
	case degraded:
	case !open && status.InCrisis:
		s.beginCrisis(e, ret)
		res.Detected = true
	case open && status.InCrisis:
		s.Calm = 0
	case open && !status.InCrisis:
		s.Calm++
		if s.Calm > 1 {
			s.endCrisis(e, h, &res)
		}
	}

	p := s.Active()
	if p == nil {
		if !degraded {
			// Idle: feed the pre-crisis raw ring and refresh thresholds. The
			// refresh fires on threshold *age*, not calendar alignment: a
			// crisis straddling a refresh boundary would otherwise postpone
			// the refresh by a further full interval while the thresholds
			// silently grew stale, whereas age-based refresh catches up on the
			// first idle epoch. Degraded epochs feed neither: sparse rows are
			// not a usable pre-crisis baseline, and thresholds estimated over
			// them would drift toward outage artifacts.
			ret.Epoch = e
			s.Ring[s.RingPos], *ret = *ret, s.Ring[s.RingPos]
			s.RingPos = (s.RingPos + 1) % s.cfg.RawPad
			if int(e) >= s.cfg.MinEpochsForThresholds && int(e-s.LastThresh) >= s.cfg.ThresholdRefreshEpochs {
				h.Begin("thresholds")
				err := s.refreshThresholds(e)
				if err != nil && !errors.Is(err, metrics.ErrNoNormalEpochs) {
					return res, err
				}
				h.End("thresholds")
			}
		}
		return res, nil
	}
	res.Crisis = p
	rep := res.Report
	rep.CrisisActive = true
	rep.CrisisStart = p.State.Start
	if !degraded {
		// The detection epoch's samples were already collected as the crisis
		// began, so they enter selection twice. Collecting them once moves
		// every stored crisis's relevant metrics and with them every digest;
		// that change belongs with the solver rework.
		s.collect(ret)
	}
	if k := int(e - p.State.Start); k < ident.IdentificationEpochs {
		rep.Advice = s.identify(p, e, k, h, &res)
		if rep.Advice != nil {
			rep.Advice.Degraded = degraded
		}
	}
	return res, nil
}

func (s *State) beginCrisis(e metrics.Epoch, cur *Retained) {
	s.Crises = append(s.Crises, Crisis{State: CrisisState{Start: e, Closed: -1}, id: CrisisID(len(s.Crises) + 1)})
	s.Open = true
	s.Calm = 0
	// Seed feature-selection samples with the buffered pre-crisis epochs,
	// oldest first. Slots carry the epoch they were filled at: the ring is
	// not drained when a crisis ends, so when crises come back to back its
	// older slots still hold rows from *before the previous episode*.
	// Those are not this crisis's baseline — only slots within RawPad
	// epochs of the new start qualify.
	for i := 0; i < s.cfg.RawPad; i++ {
		slot := &s.Ring[(s.RingPos+i)%s.cfg.RawPad]
		if len(slot.Viol) == 0 || slot.Epoch+metrics.Epoch(s.cfg.RawPad) < e {
			continue
		}
		s.collect(slot)
	}
	s.collect(cur)
}

// collect copies one retained epoch's reporting machines and their violation
// flags into the open crisis's feature-selection buffer as one metric-major
// block. The epoch's storage (the step's, or a ring slot) gets recycled, so
// the buffer owns its copy: one allocation per collected epoch.
func (s *State) collect(r *Retained) {
	x, pos := r.samples(s.cfg.Width, s.posBuf[:0])
	s.posBuf = pos
	// Every block is catalog-wide and as long as its labels, so the
	// buffer's only error, a shape mismatch, cannot occur.
	_ = s.fs.AppendBlock(x, pos)
}

// endCrisis finalizes the open crisis at epoch e: stores it as the window of
// the track it closes at and runs its feature selection, which consumes the
// collected samples in place. The samples are released on every path: a
// crisis that cannot be stored (no thresholds yet) would otherwise keep every
// machine row of the episode for the life of the process.
func (s *State) endCrisis(e metrics.Epoch, h Hook, res *Result) {
	p := s.Active()
	s.Open, s.Calm = false, 0
	res.Crisis, res.Ended = p, true
	defer func() { s.fs = core.SampleBuffer{} }()
	if s.Thresholds == nil {
		return
	}
	p.State.Closed, res.Stored = e, true
	h.Begin("selection")
	top, st, err := core.PerCrisisSelection(&s.fs, s.cfg.Selection.PerCrisisTopK)
	p.State.Top = top
	h.End("selection")
	res.Selection = Selection{Rows: s.fs.Len(), Selected: len(top), Stats: st, Err: err}
}

// Flush finalizes a crisis still open when the input stream ends, as of the
// last observed epoch: the two-calm-epoch close rule can never fire once no
// more epochs arrive. Without an open crisis it does nothing (Ended false).
func (s *State) Flush(h Hook) Result {
	var res Result
	if h == nil {
		h = nopHook{}
	}
	if s.Open {
		s.endCrisis(max(s.Epoch()-1, 0), h, &res)
	}
	return res
}

func (s *State) refreshThresholds(e metrics.Epoch) error {
	// Normal epochs are crisis-free AND fully covered: a degraded epoch's
	// quantiles describe whatever sliver of machines reported, not the
	// datacenter, so they must not shape the hot/cold percentiles.
	isNormal := func(t metrics.Epoch) bool {
		if t < 0 || int(t) >= len(s.InCrisis) {
			return true
		}
		return !s.InCrisis[t] && !s.Degraded[t]
	}
	th, err := metrics.ComputeThresholds(s.Track, isNormal, e, s.cfg.Thresholds)
	if err != nil {
		return err
	}
	s.Thresholds = th
	s.LastThresh = e
	s.ThGen++
	return nil
}

// KnownCrises reports how many crises are stored, and how many crises, stored
// or not, carry operator labels.
func (s *State) KnownCrises() (stored, labeled int) {
	for i := range s.Crises {
		if s.Crises[i].State.Closed >= 0 {
			stored++
		}
		if s.Crises[i].State.Label != "" {
			labeled++
		}
	}
	return stored, labeled
}

// crisis returns the record of crisis id, nil when there is none.
func (s *State) crisis(id string) *Crisis {
	for i := range s.Crises {
		if s.Crises[i].id == id {
			return &s.Crises[i]
		}
	}
	return nil
}

// Resolve records the operator's diagnosis of crisis id; false when there is
// no such crisis.
func (s *State) Resolve(id, label string) bool {
	p := s.crisis(id)
	if p != nil {
		p.State.Label = label
	}
	return p != nil
}

// Explanations returns the identification audit records of crisis id in
// ident-epoch order, each equal to the Advice.Explanation emitted with it
// (read-only: a record restored from a checkpoint is shared). ok=false for an
// unknown crisis; an empty non-nil slice for a crisis identified before
// thresholds existed.
func (s *State) Explanations(id string) ([]*ident.Explanation, bool) {
	p := s.crisis(id)
	if p == nil {
		return nil, false
	}
	return s.explanations(p), true
}
