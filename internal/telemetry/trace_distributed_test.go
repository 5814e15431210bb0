package telemetry

import (
	"strconv"
	"testing"
)

func TestEpochTraceIDDeterministicAndSpread(t *testing.T) {
	seen := make(map[uint64]int64)
	for e := int64(0); e < 10_000; e++ {
		id := EpochTraceID(e)
		if id2 := EpochTraceID(e); id2 != id {
			t.Fatalf("epoch %d: nondeterministic id %x vs %x", e, id, id2)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("epochs %d and %d collide on trace id %x", prev, e, id)
		}
		seen[id] = e
	}
	if EpochTraceID(0) == 0 {
		t.Fatal("epoch 0 maps to trace id 0 (reads as local-only)")
	}
}

func TestStartTraceIDPropagatesIntoSnapshot(t *testing.T) {
	tc := NewTracer(4)
	id := EpochTraceID(42)
	tr := tc.StartTraceID("observe_shard", id)
	if tr.TraceID() != id {
		t.Fatalf("TraceID() = %x, want %x", tr.TraceID(), id)
	}
	tr.End()
	snap, ok := latest(tc)
	if !ok || snap.TraceID != strconv.FormatUint(id, 16) {
		t.Fatalf("snapshot trace_id = %q, want %q", snap.TraceID, strconv.FormatUint(id, 16))
	}

	// Local-only traces must keep the omitted zero form.
	tc.StartTrace("local").End()
	if snap, _ = latest(tc); snap.TraceID != "" {
		t.Fatalf("local trace carries trace_id %q", snap.TraceID)
	}
}

func TestCompletedSpansSkipsOpenAndRemapsParents(t *testing.T) {
	tc := NewTracer(1)
	tr := tc.StartTrace("observe_shard")
	ing := tr.StartSpan("ingest")
	f := tr.StartSpan("filter") // child of ingest
	f.SetAttr("lo", 0)
	f.End()
	ing.End()
	open := tr.StartSpan("ship") // still open
	inner := tr.StartSpan("post")
	inner.End() // completed child of an OPEN parent

	spans := tr.CompletedSpans()
	open.End()
	tr.End()

	if len(spans) != 3 {
		t.Fatalf("completed spans = %d, want 3 (%+v)", len(spans), spans)
	}
	byName := map[string]SpanSnapshot{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if _, ok := byName["ship"]; ok {
		t.Fatal("open ship span leaked into completed set")
	}
	if byName["ingest"].Parent != -1 {
		t.Fatalf("ingest parent = %d, want -1", byName["ingest"].Parent)
	}
	if got := spans[byName["filter"].Parent].Name; got != "ingest" {
		t.Fatalf("filter reparented to %q, want ingest", got)
	}
	// post's parent (ship) was open, so it re-parents to ship's parent: root.
	if byName["post"].Parent != -1 {
		t.Fatalf("post parent = %d, want -1 (nearest completed ancestor)", byName["post"].Parent)
	}
	if len(byName["filter"].Attrs) != 1 || byName["filter"].Attrs[0].Key != "lo" {
		t.Fatalf("filter attrs lost: %+v", byName["filter"].Attrs)
	}
}

func TestGraftSplicesRemoteSpans(t *testing.T) {
	tc := NewTracer(2)

	// Remote fragment: what an aggregator would embed in a frame.
	remoteTr := tc.StartTrace("observe_shard")
	ing := remoteTr.StartSpan("ingest")
	remoteTr.StartSpan("filter").End()
	ing.End()
	remote := remoteTr.CompletedSpans()
	remoteTr.End()

	tr := tc.StartTrace("merge_epoch")
	collect := tr.StartSpan("collect")
	tr.Graft("shard_0", remote, Attr{Key: "shard", Value: 0}, Attr{Key: "arrival_offset_micros", Value: 1500})
	collect.End()
	tr.End()

	snap, _ := latest(tc)
	if snap.Name != "merge_epoch" {
		t.Fatalf("latest trace %q", snap.Name)
	}
	idx := map[string]int{}
	for i, s := range snap.Spans {
		idx[s.Name] = i
	}
	anchor, ok := idx["shard_0"]
	if !ok {
		t.Fatalf("anchor span missing: %+v", snap.Spans)
	}
	if snap.Spans[anchor].Parent != idx["collect"] {
		t.Fatalf("anchor parent = %d, want collect (%d)", snap.Spans[anchor].Parent, idx["collect"])
	}
	if got := snap.Spans[anchor].Attrs; len(got) != 2 || got[1].Value != 1500 {
		t.Fatalf("anchor attrs: %+v", got)
	}
	// Remote root re-parents to the anchor; nested remote parentage is
	// rebased, not flattened.
	if snap.Spans[idx["ingest"]].Parent != anchor {
		t.Fatalf("remote ingest parent = %d, want anchor %d", snap.Spans[idx["ingest"]].Parent, anchor)
	}
	if snap.Spans[idx["filter"]].Parent != idx["ingest"] {
		t.Fatalf("remote filter parent = %d, want ingest %d", snap.Spans[idx["filter"]].Parent, idx["ingest"])
	}
	// The anchor's extent covers its children (offsets are trace-relative).
	a := snap.Spans[anchor]
	c := snap.Spans[idx["ingest"]]
	if c.StartOffsetSeconds < a.StartOffsetSeconds-1e-9 {
		t.Fatalf("child starts before anchor: %v < %v", c.StartOffsetSeconds, a.StartOffsetSeconds)
	}
	if end, aEnd := c.StartOffsetSeconds+c.DurationSeconds, a.StartOffsetSeconds+a.DurationSeconds; end > aEnd+1e-9 {
		t.Fatalf("child ends after anchor: %v > %v", end, aEnd)
	}
}

func TestGraftEmptyRemote(t *testing.T) {
	tc := NewTracer(1)
	tr := tc.StartTrace("merge_epoch")
	tr.Graft("shard_1", nil, Attr{Key: "shard", Value: 1})
	tr.End()
	snap, _ := latest(tc)
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "shard_1" {
		t.Fatalf("empty graft spans: %+v", snap.Spans)
	}
	// A nil trace tolerates grafting (disabled-tracer path).
	var nilTr *Trace
	nilTr.Graft("shard_2", nil)
}
