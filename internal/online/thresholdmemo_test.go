package online

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dcfp/internal/core"
	"dcfp/internal/ident"
	"dcfp/internal/metrics"
)

// TestThresholdMemoKey: a hit returns the remembered bits, and each part of
// the key — thresholds generation, relevant set, candidate order, a label —
// forces a recompute. A poisoned memo tells the two apart.
func TestThresholdMemoKey(t *testing.T) {
	const nm = 4
	track, err := metrics.NewQuantileTrack(nm)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 200; e++ {
		row := make([][3]float64, nm)
		for m := range row {
			v := float64(e)
			row[m] = [3]float64{v, v, v}
		}
		if err := track.AppendEpoch(row); err != nil {
			t.Fatal(err)
		}
	}
	th, err := metrics.ComputeThresholds(track, func(metrics.Epoch) bool { return true }, 199, metrics.DefaultThresholdConfig())
	if err != nil {
		t.Fatal(err)
	}
	fp := func(relevant []int, gen uint64) *core.Fingerprinter {
		f, err := core.NewFingerprinter(th, relevant)
		if err != nil {
			t.Fatal(err)
		}
		f.SetGeneration(gen)
		return f
	}
	rng := rand.New(rand.NewSource(3))
	f := fp([]int{0, 2}, 1)
	var cands []identCandidate
	for i, label := range []string{"A", "B", "A", "C", "B"} {
		v := make([]float64, f.Size())
		for j := range v {
			v[j] = float64(rng.Intn(3) - 1)
		}
		cands = append(cands, identCandidate{exp: core.CandidateExplanation{CrisisID: fmt.Sprintf("crisis-%03d", i+1), Label: label}, fp: v})
	}
	const alpha, poison = 0.5, 12345.5

	var memo thresholdMemo
	want := memo.threshold(f, cands, alpha)
	if got := memo.threshold(f, cands, alpha); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("hit returned %v, first computation %v", got, want)
	}
	memo.thr = poison
	if got := memo.threshold(fp([]int{0, 2}, 1), cands, alpha); got != poison {
		t.Fatalf("an equal key recomputed (%v)", got)
	}

	relabeled := append([]identCandidate(nil), cands...)
	relabeled[3].exp.Label = "A"
	swapped := append([]identCandidate(nil), cands...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	for _, tc := range []struct {
		name  string
		f     *core.Fingerprinter
		cands []identCandidate
	}{
		{"threshold refresh", fp([]int{0, 2}, 2), cands},
		{"relevant set", fp([]int{0, 3}, 1), cands},
		{"label filed", f, relabeled},
		{"candidate order", f, swapped},
		{"candidate dropped", f, cands[:4]},
	} {
		memo.threshold(f, cands, alpha)
		memo.thr = poison
		fresh := (&thresholdMemo{}).threshold(tc.f, tc.cands, alpha)
		if got := memo.threshold(tc.f, tc.cands, alpha); got == poison || math.Float64bits(got) != math.Float64bits(fresh) {
			t.Fatalf("%s: memo returned %v, a fresh computation %v", tc.name, got, fresh)
		}
	}
}

// TestThresholdMemoMatchesCold drives two states over the same stream, one
// with its memo cleared before every epoch, through labeled history and a
// label filed mid-crisis: every advice must agree bit for bit. Poisoning the
// warm memo once shows it answered from memory, and once, after the label,
// that it did not.
func TestThresholdMemoMatchesCold(t *testing.T) {
	warm, cold := newTestbed(t), newTestbed(t)
	both := func(fn func(tb *testbed)) {
		fn(warm)
		fn(cold)
	}
	both(func(tb *testbed) { tb.quiet(200) })
	for i, kind := range []string{"X", "X", "Y"} {
		both(func(tb *testbed) {
			if id := tb.crisis(kind, 8); !tb.s.Resolve(id, fmt.Sprintf("%s%d", kind, i%2)) {
				t.Fatalf("crisis %s not found", id)
			}
			tb.quiet(50)
		})
	}
	both(func(tb *testbed) { tb.effects = map[int]float64{tbLatency: 5, tbQueueA: 8} })
	const poison = -1.0
	var before float64 // the threshold before the label is filed
	for i := 0; i < ident.IdentificationEpochs; i++ {
		if i == 3 {
			// Relabel a stored candidate while the crisis is open.
			both(func(tb *testbed) {
				if !tb.s.Resolve("crisis-002", "X0") {
					t.Fatal("crisis-002 not found")
				}
			})
		}
		kept := warm.s.thrMemo.thr
		if i == 1 || i == 3 {
			warm.s.thrMemo.thr = poison
		}
		cold.s.thrMemo = thresholdMemo{}
		w, c := warm.step().Report, cold.step().Report
		if w.Advice == nil || c.Advice == nil {
			t.Fatalf("epoch %d: advice %v vs %v", w.Epoch, w.Advice, c.Advice)
		}
		if i == 1 {
			if w.Advice.Threshold != poison {
				t.Fatalf("epoch %d: an unchanged key recomputed the threshold", w.Epoch)
			}
			warm.s.thrMemo.thr = kept
			continue
		}
		if math.Float64bits(w.Advice.Threshold) != math.Float64bits(c.Advice.Threshold) || w.Advice.Emitted != c.Advice.Emitted {
			t.Fatalf("epoch %d: memo %v/%q, cold %v/%q", w.Epoch, w.Advice.Threshold, w.Advice.Emitted, c.Advice.Threshold, c.Advice.Emitted)
		}
		if i == 2 {
			before = c.Advice.Threshold
		}
		if i == 3 && c.Advice.Threshold == before {
			t.Fatalf("epoch %d: the label left the threshold at %v; the test needs it to move", w.Epoch, before)
		}
	}
}
