package online

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dcfp/internal/core"
	"dcfp/internal/ident"
	"dcfp/internal/metrics"
	"dcfp/internal/sla"
)

// testbed drives a State over a tiny synthetic datacenter: 20 machines,
// three metrics, one KPI (latency above 100 on at least 10% of machines).
// Crisis "X" multiplies latency and queueA on 60% of machines; crisis "Y"
// multiplies latency and queueB. Each epoch's summary (the 25th/50th/95th
// sorted values of each metric), SLA status and retained samples are built
// here by hand and handed to Step.
type testbed struct {
	t   *testing.T
	s   *State
	rng *rand.Rand
	// effects currently applied: metric -> factor on the first 12 machines.
	effects map[int]float64
	// drift is a slow datacenter-wide AR(1) wobble per metric, so
	// fingerprints of two same-type crises are similar but not identical
	// (otherwise the max-same-distance threshold rule degenerates to 0).
	drift [3]float64
	cur   Retained
}

const (
	tbMachines = 20
	tbLatency  = 0
	tbQueueA   = 1
	tbQueueB   = 2
)

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	s, err := New(Config{
		Width:                  3,
		Thresholds:             metrics.DefaultThresholdConfig(),
		Selection:              core.SelectionConfig{PerCrisisTopK: 2, NumRelevant: 3},
		Alpha:                  0.5,
		ThresholdRefreshEpochs: 48,
		RawPad:                 8,
		MinEpochsForThresholds: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &testbed{t: t, s: s, rng: rand.New(rand.NewSource(7)), effects: map[int]float64{}}
}

// step feeds one epoch and returns the step's result.
func (tb *testbed) step() Result {
	tb.t.Helper()
	base := []float64{50, 10, 10}
	for j := range tb.drift {
		tb.drift[j] = 0.9*tb.drift[j] + tb.rng.NormFloat64()*0.02
	}
	r := &tb.cur
	r.Reset(tbMachines, 3)
	status := sla.EpochStatus{ViolatingPerKPI: []int{0}, Machines: tbMachines}
	for i := 0; i < tbMachines; i++ {
		for j := 0; j < 3; j++ {
			v := base[j] * (1 + tb.drift[j]) * (1 + tb.rng.NormFloat64()*0.08)
			if f, ok := tb.effects[j]; ok && i < 12 {
				v *= f
			}
			r.X[j*tbMachines+i] = v
		}
		r.Live()[i] = true
		r.Viol[i] = r.X[tbLatency*tbMachines+i] > 100
		if r.Viol[i] {
			status.ViolatingPerKPI[0]++
			status.ViolatingAny++
		}
	}
	status.InCrisis = float64(status.ViolatingAny) >= 0.1*tbMachines
	summary := make([][3]float64, 3)
	for j := range summary {
		col := slices.Clone(r.X[j*tbMachines : (j+1)*tbMachines])
		slices.Sort(col)
		summary[j] = [3]float64{col[tbMachines/4], col[tbMachines/2], col[tbMachines*19/20]}
	}
	r.Finish(summary)
	res, err := tb.s.Step(summary, status, false, r, nil)
	if err != nil {
		tb.t.Fatal(err)
	}
	return res
}

func (tb *testbed) quiet(n int) {
	tb.t.Helper()
	tb.effects = map[int]float64{}
	for i := 0; i < n; i++ {
		if res := tb.step(); res.Report.CrisisActive {
			tb.t.Fatalf("false crisis during quiet period at epoch %d", res.Report.Epoch)
		}
	}
}

// crisis injects a crisis of the given kind for dur epochs and returns its
// ID.
func (tb *testbed) crisis(kind string, dur int) string {
	tb.t.Helper()
	switch kind {
	case "X":
		tb.effects = map[int]float64{tbLatency: 5, tbQueueA: 8}
	case "Y":
		tb.effects = map[int]float64{tbLatency: 5, tbQueueB: 8}
	}
	var id string
	for i := 0; i < dur; i++ {
		res := tb.step()
		if !res.Report.CrisisActive {
			tb.t.Fatalf("crisis not detected at injected epoch %d", res.Report.Epoch)
		}
		id = res.Crisis.ID()
	}
	// Two calm epochs close the episode; a third confirms idle.
	tb.effects = map[int]float64{}
	tb.step()
	tb.step()
	tb.step()
	return id
}

// stored is the stored-crisis count.
func (tb *testbed) stored() int {
	n, _ := tb.s.KnownCrises()
	return n
}

// TestEndCrisisReleasesBuffersWhenUnstored pins the fix for the feature-
// selection buffer leak: a crisis that ends before thresholds exist (so it
// can never be stored) must still release its raw machine rows.
func TestEndCrisisReleasesBuffersWhenUnstored(t *testing.T) {
	tb := newTestbed(t)
	tb.quiet(10) // far too early for thresholds
	tb.effects = map[int]float64{tbLatency: 5}
	for i := 0; i < 4; i++ {
		if res := tb.step(); !res.Report.CrisisActive {
			t.Fatal("crisis not detected")
		}
	}
	tb.effects = map[int]float64{}
	tb.step()
	res := tb.step() // second calm epoch closes the episode
	if tb.s.Active() != nil || !res.Ended || res.Stored {
		t.Fatalf("crisis active %v, ended %v, stored %v; want ended unstored", tb.s.Active() != nil, res.Ended, res.Stored)
	}
	if tb.stored() != 0 {
		t.Fatal("precondition: crisis must be unstorable without thresholds")
	}
	if n := tb.s.fs.Len(); n != 0 {
		t.Fatalf("feature-selection buffers leaked on the unstored path: %d rows retained", n)
	}
}

// TestFlushReleasesBuffers: a crisis Flush stores still releases its
// feature-selection samples, and a second Flush does nothing.
func TestFlushReleasesBuffers(t *testing.T) {
	tb := newTestbed(t)
	if res := tb.s.Flush(nil); res.Ended {
		t.Fatal("Flush with no active crisis must be a no-op")
	}
	tb.quiet(200)
	tb.effects = map[int]float64{tbLatency: 5, tbQueueA: 8}
	for i := 0; i < 4; i++ {
		tb.step()
	}
	if tb.s.fs.Len() == 0 {
		t.Fatal("precondition: the open crisis collected no samples")
	}
	res := tb.s.Flush(nil)
	if !res.Ended || !res.Stored || res.Crisis.State.Closed != 203 || res.Selection.Rows == 0 {
		t.Fatalf("Flush result %+v, want crisis stored at the last epoch after a selection", res)
	}
	if tb.s.fs.Len() != 0 || tb.s.Active() != nil {
		t.Fatalf("after Flush %d samples retained, crisis active %v", tb.s.fs.Len(), tb.s.Active() != nil)
	}
	if tb.s.Flush(nil).Ended {
		t.Fatal("second Flush must be a no-op")
	}
}

// TestBackToBackCrisesSkipStaleRing covers two satellite behaviours at
// once: crises separated by exactly two calm epochs form two distinct
// episodes, and the second crisis's pre-crisis seed skips ring slots
// filled before the first crisis (they are older than RawPad epochs and
// are not this crisis's baseline).
func TestBackToBackCrisesSkipStaleRing(t *testing.T) {
	tb := newTestbed(t)
	tb.quiet(200)
	// Crisis 1: epochs 200..207.
	tb.effects = map[int]float64{tbLatency: 5, tbQueueA: 8}
	for i := 0; i < 8; i++ {
		if res := tb.step(); !res.Report.CrisisActive {
			t.Fatal("first crisis not detected")
		}
	}
	// Exactly two calm epochs (208, 209) close it; 209 is also the first
	// idle epoch, so it is the only fresh ring entry.
	tb.effects = map[int]float64{}
	if res := tb.step(); !res.Report.CrisisActive {
		t.Fatal("one calm epoch must not close the episode")
	}
	if res := tb.step(); res.Report.CrisisActive {
		t.Fatal("two calm epochs must close the episode")
	}
	if tb.stored() != 1 {
		t.Fatalf("%d crises stored after the first crisis", tb.stored())
	}
	// Crisis 2 opens on the very next epoch (210).
	tb.effects = map[int]float64{tbLatency: 5, tbQueueB: 8}
	if res := tb.step(); !res.Report.CrisisActive || !res.Detected {
		t.Fatal("second crisis not detected")
	}
	if len(tb.s.Crises) != 2 || tb.s.Active() != &tb.s.Crises[1] {
		t.Fatalf("%d crisis records, want 2 distinct episodes, the second open", len(tb.s.Crises))
	}
	// The active crisis's samples: one fresh ring epoch (209) plus the
	// detection epoch's rows. Ring slots from epochs 193..199 predate the
	// first crisis by more than RawPad epochs relative to 210 and must be
	// skipped — before the fix they were all seeded in.
	maxFresh := (1 + 2) * tbMachines // ring(209) + detection epoch collected on begin+active paths
	if got := tb.s.fs.Len(); got > maxFresh {
		t.Fatalf("fs holds %d rows, want <= %d (stale pre-first-crisis ring rows seeded?)", got, maxFresh)
	}
	if x, y := tb.s.fs.Block(); len(x) != tb.s.cfg.Width*len(y) {
		t.Fatalf("sample/label length mismatch: %d values for %d labels", len(x), len(y))
	}
}

// TestThresholdRefreshCatchesUpAfterCrisis pins the age-based refresh rule:
// when a crisis straddles a refresh boundary, the refresh happens on the
// first idle epoch after the episode instead of waiting for the next
// aligned boundary (which silently doubled the threshold age).
func TestThresholdRefreshCatchesUpAfterCrisis(t *testing.T) {
	tb := newTestbed(t)
	tb.quiet(142) // refresh at 96; next due at 144
	if tb.s.LastThresh != 96 {
		t.Fatalf("precondition: lastThresh = %d, want 96", tb.s.LastThresh)
	}
	// Crisis over epochs 142..146 straddles the 144 boundary.
	tb.effects = map[int]float64{tbLatency: 5, tbQueueA: 8}
	for i := 0; i < 5; i++ {
		if res := tb.step(); !res.Report.CrisisActive {
			t.Fatal("crisis not detected")
		}
	}
	tb.effects = map[int]float64{}
	tb.step() // 147: first calm epoch, episode still open
	tb.step() // 148: closes the episode and is the first idle epoch
	if tb.s.LastThresh != 148 {
		t.Fatalf("lastThresh = %d, want refresh to catch up at 148", tb.s.LastThresh)
	}
}

// TestPerCrisisSampleCollectionAllocs: an open crisis keeps each collected epoch
// as one metric-major block — one allocation per epoch (plus the geometric
// growth of the block and label lists), not one per machine row.
func TestPerCrisisSampleCollectionAllocs(t *testing.T) {
	const machines, width = 100, 100
	s, err := New(Config{Width: width, RawPad: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	retained := make([]Retained, 8)
	for e := range retained {
		r := &retained[e]
		r.Reset(machines, width)
		for i := range r.X {
			r.X[i] = rng.Float64()
		}
		for i := range r.Live() {
			r.Live()[i], r.Viol[i] = true, false
		}
		r.Finish(nil)
	}
	s.posBuf = make([]bool, 0, machines)
	const collected = 64
	total := testing.AllocsPerRun(1, func() {
		s.fs = core.SampleBuffer{}
		for e := 0; e < collected; e++ {
			s.collect(&retained[e%len(retained)])
		}
	})
	if s.fs.Len() != collected*machines {
		t.Fatalf("collected %d rows, want %d", s.fs.Len(), collected*machines)
	}
	if total < collected || total > collected*3/2 {
		t.Errorf("collecting %d epochs allocated %v times, want one per epoch plus list growth", collected, total)
	}
}

// TestStepAdvisesDuringFirstEpochs: a stored, labelled crisis is the
// candidate the next crisis of its kind is compared with, for exactly the
// first ident.IdentificationEpochs epochs, and the step reports the memo
// lookups it made.
func TestStepAdvisesDuringFirstEpochs(t *testing.T) {
	tb := newTestbed(t)
	tb.quiet(200)
	for i, kind := range []string{"X", "X"} {
		if !tb.s.Resolve(tb.crisis(kind, 8), "X") {
			t.Fatalf("crisis %d not found", i)
		}
		tb.quiet(20)
	}
	tb.effects = map[int]float64{tbLatency: 5, tbQueueA: 8}
	for k := 0; k < ident.IdentificationEpochs+2; k++ {
		res := tb.step()
		adv := res.Report.Advice
		if k >= ident.IdentificationEpochs {
			if adv != nil {
				t.Fatalf("advice at identification epoch %d", k)
			}
			continue
		}
		if adv == nil || adv.IdentEpoch != k || adv.Candidates != 2 || res.Hits+res.Misses != 2 {
			t.Fatalf("identification epoch %d: advice %+v, memo %d hits %d misses", k, adv, res.Hits, res.Misses)
		}
	}
}

// TestRetainedFinishSanitizes: every non-finite cell of the retained epoch
// (NaN and ±Inf, the last slot and a delivered row of nothing but NaN
// included) becomes its column's median, and no finite cell changes.
func TestRetainedFinishSanitizes(t *testing.T) {
	const n, width = 6, 4
	var r Retained
	r.Reset(n, width)
	for i := range r.X {
		r.X[i] = float64(i) + 0.5
	}
	live := r.Live()
	for i := range live {
		live[i] = true
	}
	bad := map[[2]int]float64{ // {metric, slot}
		{0, 1}: math.NaN(), {1, n - 1}: math.Inf(1), {2, 0}: math.Inf(-1),
		{3, 2}: math.NaN(), {3, n - 1}: math.Inf(-1), {1, 4}: math.NaN(),
	}
	const dark = 3 // delivered every metric as NaN
	live[dark] = false
	for j := 0; j < width; j++ {
		bad[[2]int{j, dark}] = math.NaN()
	}
	nonFinite := r.NonFinite()
	for c, v := range bad {
		r.X[c[0]*n+c[1]] = v
		nonFinite[c[0]]++
	}
	want := slices.Clone(r.X)
	summary := make([][3]float64, width)
	for j := range summary {
		summary[j] = [3]float64{-1, 100 + float64(j), -2}
		for c := range bad {
			if c[0] == j {
				want[j*n+c[1]] = summary[j][1]
			}
		}
	}
	if got := r.Finish(summary); got != n-1 {
		t.Fatalf("Finish reports %d slots, want %d", got, n-1)
	}
	for i, v := range r.X {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Errorf("metric %d slot %d is %v, want %v", i/n, i%n, v, want[i])
		}
	}
}
