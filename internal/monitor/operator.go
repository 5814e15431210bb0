package monitor

import (
	"fmt"
	"maps"
	"slices"

	"dcfp/internal/ident"
	"dcfp/internal/metrics"
)

// Operator simulates the operators of the paper's §8 pilot: while a detected
// crisis overlaps an injected instance it notes the ground-truth label under
// the monitor's crisis ID, and a fixed delay after the crisis ends it files
// that label through ResolveCrisis and scores the advice the monitor had
// emitted (§4.3) on the Scoreboard. A crisis that never overlapped an
// injected instance is never labelled. A nil *Operator files nothing.
type Operator struct {
	mon   *Monitor
	score *Scoreboard
	delay metrics.Epoch
	st    OperatorState
}

// OperatorState is the operator's checkpointable working state.
type OperatorState struct {
	Truth   map[string]string // crisis ID -> label, for crises not yet ended
	Pending []PendingDiagnosis
	LastID  string // ID of the most recent active crisis
	WasIn   bool   // the previous report was crisis-active
}

// PendingDiagnosis is a label waiting for its filing epoch.
type PendingDiagnosis struct {
	Due       metrics.Epoch
	ID, Label string
}

// Resolution records one filed diagnosis; its JSON form is the audit
// journal's "resolve" line. Scored is false for a crisis that never produced
// an identification attempt (detected before thresholds existed): it is
// labelled, but Known, Votes and the Outcome stay zero.
type Resolution struct {
	Epoch metrics.Epoch `json:"epoch"`
	Feedback
	Scored bool `json:"-"`
	ident.Outcome
}

// NewOperator builds an operator that files each diagnosis resolveAfter >= 0
// epochs after its crisis ends (0 = on the ending epoch itself).
func NewOperator(mon *Monitor, score *Scoreboard, resolveAfter int) *Operator {
	return &Operator{mon: mon, score: score, delay: metrics.Epoch(resolveAfter)}
}

// Observe advances the operator by one epoch report; truth is the label of
// the injected crisis instance active this epoch ("" for none). It returns
// one Resolution per diagnosis filed this epoch.
func (op *Operator) Observe(rep *EpochReport, truth string) ([]Resolution, error) {
	if op == nil {
		return nil, nil
	}
	st := &op.st
	if rep.CrisisActive {
		st.LastID = op.mon.ActiveCrisisID()
		if truth != "" {
			if st.Truth == nil {
				st.Truth = make(map[string]string)
			}
			st.Truth[st.LastID] = truth
		}
	} else if label, ok := st.Truth[st.LastID]; ok && st.WasIn {
		delete(st.Truth, st.LastID)
		st.Pending = append(st.Pending, PendingDiagnosis{rep.Epoch + op.delay, st.LastID, label})
	}
	st.WasIn = rep.CrisisActive

	var filed []Resolution
	kept := st.Pending[:0]
	for _, p := range st.Pending {
		if p.Due > rep.Epoch {
			kept = append(kept, p)
			continue
		}
		if err := op.mon.ResolveCrisis(p.ID, p.Label); err != nil {
			return filed, fmt.Errorf("resolving %s: %w", p.ID, err)
		}
		r := Resolution{Epoch: rep.Epoch, Feedback: Feedback{CrisisID: p.ID, Truth: p.Label}}
		if expls, _ := op.mon.Explanations(p.ID); len(expls) > 0 {
			r.Scored = true
			r.Votes = expls[len(expls)-1].Votes
			// Known iff a labelled crisis of this type already sat in the
			// store when identification first ran.
			for _, c := range expls[0].Candidates {
				r.Known = r.Known || c.Label == p.Label
			}
			r.Outcome = op.score.Record(r.Feedback)
		}
		filed = append(filed, r)
	}
	st.Pending = kept
	return filed, nil
}

// State returns a copy of the working state.
func (op *Operator) State() OperatorState {
	if op == nil {
		return OperatorState{}
	}
	return op.st.clone()
}

// SetState installs a copy of st.
func (op *Operator) SetState(st OperatorState) {
	if op != nil {
		op.st = st.clone()
	}
}

func (st OperatorState) clone() OperatorState {
	st.Truth, st.Pending = maps.Clone(st.Truth), slices.Clone(st.Pending)
	return st
}
