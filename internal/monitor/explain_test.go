package monitor

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/ident"
	"dcfp/internal/telemetry"
)

// TestExplanationBreakdownSeededRun is the audit-coherence satellite: over a
// seeded 420-epoch simulated run, every identification decision's
// explanation must decompose exactly — per candidate, the top contributions
// plus the residual reproduce the squared L2 distance Identify used (within
// 1e-9) — and the decision fields (nearest, distance, emitted, votes) must
// be readable back off the explanation verbatim.
func TestExplanationBreakdownSeededRun(t *testing.T) {
	if testing.Short() {
		t.Skip("420-epoch run")
	}
	const seed, epochs = 42, 420
	scfg := dcsim.DefaultStreamConfig(seed)
	scfg.WarmupEpochs = 48
	scfg.MeanGapEpochs = 24
	scfg.Types = []crisis.Type{crisis.TypeB, crisis.TypeC}
	s, err := dcsim.NewStream(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(s.Catalog(), s.SLA())
	cfg.ThresholdRefreshEpochs = 48
	cfg.MinEpochsForThresholds = 96
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	label := ""
	lastActive := false
	checked, withCandidates := 0, 0
	perCrisis := map[string][]*ident.Explanation{} // as emitted
	for i := 0; i < epochs; i++ {
		rows, act, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.ObserveEpoch(rows)
		if err != nil {
			t.Fatal(err)
		}
		if act != nil {
			label = fmt.Sprintf("type-%d", act.Type)
		}
		if rep.Advice != nil {
			adv := rep.Advice
			e := adv.Explanation
			if e == nil {
				t.Fatalf("epoch %d: advice without explanation: %+v", rep.Epoch, adv)
			}
			checked++
			perCrisis[adv.CrisisID] = append(perCrisis[adv.CrisisID], e)
			if e.CrisisID != adv.CrisisID || e.Epoch != adv.Epoch || e.IdentEpoch != adv.IdentEpoch {
				t.Fatalf("explanation identity mismatch: advice %+v, explanation %+v", adv, e)
			}
			if e.Emitted != adv.Emitted {
				t.Fatalf("epoch %d: explanation emitted %q, advice %q", rep.Epoch, e.Emitted, adv.Emitted)
			}
			if len(e.Candidates) != adv.Candidates {
				t.Fatalf("epoch %d: %d candidate explanations, advice says %d", rep.Epoch, len(e.Candidates), adv.Candidates)
			}
			if len(e.Votes) == 0 || e.Votes[len(e.Votes)-1] != adv.Emitted {
				t.Fatalf("epoch %d: vote sequence %v does not end in %q", rep.Epoch, e.Votes, adv.Emitted)
			}
			if e.Stable != ident.IsStable(e.Votes) {
				t.Fatalf("epoch %d: stability flag %v disagrees with votes %v", rep.Epoch, e.Stable, e.Votes)
			}
			if len(e.Relevant) == 0 {
				t.Fatalf("epoch %d: explanation has no relevant set", rep.Epoch)
			}
			for _, c := range e.Candidates {
				sum := c.Residual
				for _, tc := range c.Top {
					sum += tc.Contribution
				}
				if math.Abs(sum-c.SquaredDistance) > 1e-9 {
					t.Fatalf("epoch %d candidate %s: top+residual %v != squared distance %v",
						rep.Epoch, c.CrisisID, sum, c.SquaredDistance)
				}
				if math.Abs(c.Distance*c.Distance-c.SquaredDistance) > 1e-9 {
					t.Fatalf("epoch %d candidate %s: distance² %v != squared %v",
						rep.Epoch, c.CrisisID, c.Distance*c.Distance, c.SquaredDistance)
				}
			}
			for j := 1; j < len(e.Candidates); j++ {
				if e.Candidates[j].Distance < e.Candidates[j-1].Distance {
					t.Fatalf("epoch %d: candidates not sorted by distance: %v then %v",
						rep.Epoch, e.Candidates[j-1].Distance, e.Candidates[j].Distance)
				}
			}
			if n, ok := e.Nearest(); ok {
				withCandidates++
				// The decision is made on the explanation's own numbers.
				if n.Label != adv.Nearest || n.Distance != adv.Distance {
					t.Fatalf("epoch %d: decision (%q, %v) disagrees with audit record (%q, %v)",
						rep.Epoch, adv.Nearest, adv.Distance, n.Label, n.Distance)
				}
				wantEmitted := ident.Unknown
				if n.Distance < e.Threshold {
					wantEmitted = n.Label
				}
				if adv.Emitted != wantEmitted {
					t.Fatalf("epoch %d: emitted %q, threshold rule says %q (d=%v thr=%v)",
						rep.Epoch, adv.Emitted, wantEmitted, n.Distance, e.Threshold)
				}
			}
		}
		if lastActive && !rep.CrisisActive {
			recs := m.Crises()
			if err := m.ResolveCrisis(recs[len(recs)-1].ID, label); err != nil {
				t.Fatal(err)
			}
		}
		lastActive = rep.CrisisActive
	}
	if checked == 0 {
		t.Fatal("run produced no advice; the invariants were never exercised")
	}
	if withCandidates == 0 {
		t.Fatal("no advice had candidates; the distance breakdown was never exercised")
	}
	// The per-crisis audit accessor must retain exactly what was emitted,
	// across threshold refreshes and the labels filed since.
	for id, emitted := range perCrisis {
		expls, ok := m.Explanations(id)
		if !ok || len(expls) != len(emitted) {
			t.Fatalf("Explanations(%s): ok=%v len=%d, want %d records", id, ok, len(expls), len(emitted))
		}
		for k, e := range expls {
			if e.IdentEpoch != k {
				t.Fatalf("Explanations(%s)[%d] has ident epoch %d", id, k, e.IdentEpoch)
			}
			if !reflect.DeepEqual(e, emitted[k]) {
				t.Fatalf("Explanations(%s)[%d] differs from the emitted record:\n got %+v\nwant %+v", id, k, e, emitted[k])
			}
		}
	}
	if _, ok := m.Explanations("no-such-crisis"); ok {
		t.Fatal("unknown crisis reported ok")
	}
}

// TestObserveEpochTraceContent: with a tracer attached, each ObserveEpoch
// produces one trace whose spans cover the pipeline stages, with the
// identification stages nested under "identify" and stage counts carried as
// attributes.
func TestObserveEpochTraceContent(t *testing.T) {
	tb := newTestbed(t)
	tracer := telemetry.NewTracer(512)
	cfg := tb.m.cfg
	cfg.Tracer = tracer
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb.m = m
	tb.quiet(200)
	id, _ := tb.crisis("X", 8)
	if err := tb.m.ResolveCrisis(id, "X"); err != nil {
		t.Fatal(err)
	}
	tb.quiet(50)
	tb.crisis("X", 8)

	if got, want := tracer.Total(), uint64(tb.m.Epoch()); got != want {
		t.Fatalf("tracer recorded %d traces over %d epochs", got, want)
	}
	// Find a trace with a full identification: identify + nested stages and
	// a candidates attribute (the second X crisis has a labeled candidate).
	var found *telemetry.TraceSnapshot
	for _, snap := range tracer.Snapshots() {
		snap := snap
		for _, sp := range snap.Spans {
			if sp.Name == "match" {
				for _, a := range sp.Attrs {
					if a.Key == "candidates" && a.Value > 0 {
						found = &snap
					}
				}
			}
		}
		if found != nil {
			break
		}
	}
	if found == nil {
		t.Fatal("no trace recorded an identification with candidates")
	}
	if found.Name != "observe_epoch" {
		t.Fatalf("trace name %q", found.Name)
	}
	attrs := map[string]int64{}
	for _, a := range found.Attrs {
		attrs[a.Key] = a.Value
	}
	if _, ok := attrs["epoch"]; !ok {
		t.Fatalf("trace attrs missing epoch: %+v", found.Attrs)
	}
	if attrs["machines_reporting"] != tbMachines {
		t.Fatalf("machines_reporting = %d, want %d", attrs["machines_reporting"], tbMachines)
	}
	idx := map[string]int{}
	for i, sp := range found.Spans {
		idx[sp.Name] = i
	}
	for _, stage := range []string{"ingest", "filter", "summarize", "sla", "identify", "fingerprint", "match", "advise"} {
		if _, ok := idx[stage]; !ok {
			t.Fatalf("trace missing span %q: %+v", stage, found.Spans)
		}
	}
	for _, nested := range []string{"fingerprint", "match", "advise"} {
		if p := found.Spans[idx[nested]].Parent; p != idx["identify"] {
			t.Fatalf("span %q parent %d, want identify (%d)", nested, p, idx["identify"])
		}
	}
	for _, root := range []string{"ingest", "filter", "summarize", "sla", "identify"} {
		if p := found.Spans[idx[root]].Parent; p != -1 {
			t.Fatalf("span %q should be a root span, parent %d", root, p)
		}
	}
}

// TestCheckpointRetainsExplanations: votes and audit records survive a
// checkpoint/restore round trip, so /explain keeps answering for crises
// identified before a restart.
func TestCheckpointRetainsExplanations(t *testing.T) {
	tb := newTestbed(t)
	tb.quiet(200)
	id1, _ := tb.crisis("X", 8)
	if err := tb.m.ResolveCrisis(id1, "X"); err != nil {
		t.Fatal(err)
	}
	tb.quiet(50)
	id2, _ := tb.crisis("X", 8)
	want, ok := tb.m.Explanations(id2)
	if !ok || len(want) == 0 {
		t.Fatalf("no explanations for %s before checkpoint", id2)
	}

	var buf bytes.Buffer
	if err := tb.m.WriteCheckpoint(&buf, CheckpointMeta{SourceEpoch: -1}); err != nil {
		t.Fatal(err)
	}
	m2, err := New(tb.m.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.ReadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, ok := m2.Explanations(id2)
	if !ok {
		t.Fatalf("restored monitor lost crisis %s", id2)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("explanations differ after restore:\n got %+v\nwant %+v", got, want)
	}
}
