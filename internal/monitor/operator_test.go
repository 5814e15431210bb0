package monitor

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"dcfp/internal/metrics"
)

// opRun drives an Operator over the synthetic testbed. ended records the
// epoch of each crisis's first calm report, in crisis order.
type opRun struct {
	tb    *testbed
	op    *Operator
	score *Scoreboard
	filed []Resolution
	ended []metrics.Epoch
	// after, when set, runs after every observed epoch.
	after func(r *opRun)
}

func newOpRun(t *testing.T, delay int) *opRun {
	tb := newTestbed(t)
	score := NewScoreboard(nil)
	return &opRun{tb: tb, score: score, op: NewOperator(tb.m, score, delay)}
}

func (r *opRun) step(truth string) *EpochReport {
	r.tb.t.Helper()
	rep := r.tb.step()
	filed, err := r.op.Observe(rep, truth)
	if err != nil {
		r.tb.t.Fatal(err)
	}
	r.filed = append(r.filed, filed...)
	if r.after != nil {
		r.after(r)
	}
	return rep
}

func (r *opRun) quiet(n int) {
	r.tb.effects = map[int]float64{}
	for i := 0; i < n; i++ {
		r.step("")
	}
}

// crisis applies effects for dur epochs — the injected instance, if truth is
// non-empty, covering exactly those — and lets the episode close.
func (r *opRun) crisis(effects map[int]float64, truth string, dur int) {
	r.tb.t.Helper()
	r.tb.effects = effects
	for i := 0; i < dur; i++ {
		if rep := r.step(truth); !rep.CrisisActive {
			r.tb.t.Fatalf("crisis not detected at injected epoch %d", rep.Epoch)
		}
	}
	r.tb.effects = map[int]float64{}
	for {
		if rep := r.step(""); !rep.CrisisActive {
			r.ended = append(r.ended, rep.Epoch)
			return
		}
	}
}

// script is the shared scenario: a labelled crisis before thresholds exist,
// a labelled X, a Y that no injected instance overlaps, a second labelled X.
func (r *opRun) script() {
	x := map[int]float64{tbLatency: 5, tbQueueA: 8}
	y := map[int]float64{tbLatency: 5, tbQueueB: 8}
	r.quiet(10)
	r.crisis(x, "X", 4)
	r.quiet(110)
	r.crisis(x, "X", 6)
	r.quiet(30)
	r.crisis(y, "", 6)
	r.quiet(30)
	r.crisis(x, "X", 6)
	r.quiet(30)
}

func TestOperatorFilesAfterDelay(t *testing.T) {
	r0, r24 := newOpRun(t, 0), newOpRun(t, 24)
	r0.script()
	r24.script()

	recs := r0.tb.m.Crises()
	if len(recs) != 4 || len(r0.ended) != 4 {
		t.Fatalf("script produced %d crises (%d ended), want 4", len(recs), len(r0.ended))
	}
	// The unlabelled Y (third crisis) is never filed; the rest are, on the
	// epoch they end plus the delay.
	wantIDs := []string{recs[0].ID, recs[1].ID, recs[3].ID}
	wantEnd := []metrics.Epoch{r0.ended[0], r0.ended[1], r0.ended[3]}
	for _, c := range []struct {
		name  string
		run   *opRun
		delay metrics.Epoch
	}{{"delay 0", r0, 0}, {"delay 24", r24, 24}} {
		name, run, delay := c.name, c.run, c.delay
		if len(run.filed) != len(wantIDs) {
			t.Fatalf("%s: filed %d diagnoses, want %d: %+v", name, len(run.filed), len(wantIDs), run.filed)
		}
		for i, f := range run.filed {
			if f.CrisisID != wantIDs[i] || f.Truth != "X" || f.Epoch != wantEnd[i]+delay {
				t.Errorf("%s: resolution %d = %s %q at epoch %d, want %s \"X\" at %d",
					name, i, f.CrisisID, f.Truth, f.Epoch, wantIDs[i], wantEnd[i]+delay)
			}
		}
		// Detected before thresholds existed: labelled, not scorable.
		if f := run.filed[0]; f.Scored || f.Votes != nil {
			t.Errorf("%s: pre-threshold crisis was scored: %+v", name, f)
		}
		for _, f := range run.filed[1:] {
			if !f.Scored || len(f.Votes) == 0 {
				t.Errorf("%s: %s not scored: %+v", name, f.CrisisID, f)
			}
		}
		if st := run.score.State(); st.Resolved != 2 {
			t.Errorf("%s: scoreboard holds %d diagnoses, want the 2 scored ones", name, st.Resolved)
		}
		for i, rec := range run.tb.m.Crises() {
			if want := map[bool]string{true: "", false: "X"}[i == 2]; rec.Label != want {
				t.Errorf("%s: crisis %s labelled %q, want %q", name, rec.ID, rec.Label, want)
			}
		}
	}
	// With no delay the first X is labelled before the second arrives, so
	// the second is a known crisis.
	if f := r0.filed[2]; !f.Known {
		t.Errorf("second X not known at identification time: %+v", f)
	}
}

// TestOperatorStateRoundTrip: a state gob-encoded while a diagnosis is
// pending, installed in a fresh Operator, files it on the same epoch.
func TestOperatorStateRoundTrip(t *testing.T) {
	ref := newOpRun(t, 24)
	ref.script()

	cut := newOpRun(t, 24)
	swaps := 0
	cut.after = func(r *opRun) {
		st := r.op.State()
		if swaps > 0 || len(st.Pending) == 0 {
			return
		}
		swaps++
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		var back OperatorState
		if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
			t.Fatal(err)
		}
		r.op = NewOperator(r.tb.m, r.score, 24)
		r.op.SetState(back)
	}
	cut.script()
	if swaps != 1 {
		t.Fatal("no diagnosis was ever pending; the round trip is vacuous")
	}
	if !reflect.DeepEqual(cut.filed, ref.filed) {
		t.Fatalf("resolutions differ after the state round trip:\n got %+v\nwant %+v", cut.filed, ref.filed)
	}
}

// TestOperatorNil: -resolve-after 0 is a nil operator that files nothing.
func TestOperatorNil(t *testing.T) {
	var op *Operator
	if filed, err := op.Observe(&EpochReport{CrisisActive: true}, "X"); filed != nil || err != nil {
		t.Fatalf("nil operator filed %v, %v", filed, err)
	}
	op.SetState(OperatorState{LastID: "c"})
	if st := op.State(); !reflect.DeepEqual(st, OperatorState{}) {
		t.Fatalf("nil operator holds state %+v", st)
	}
}
