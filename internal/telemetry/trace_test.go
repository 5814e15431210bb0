package telemetry

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestTraceSpanNesting(t *testing.T) {
	tracer := NewTracer(4)
	tr := tracer.StartTrace("epoch")
	tr.SetAttr("epoch", 7)

	ingest := tr.StartSpan("ingest")
	ingest.SetAttr("machines", 100)
	ingest.End()

	identify := tr.StartSpan("identify")
	fp := tr.StartSpan("fingerprint") // nested under identify
	fp.End()
	match := tr.StartSpan("match")
	match.SetAttr("candidates", 3)
	match.End()
	identify.End()
	tr.End()

	snap, ok := latest(tracer)
	if !ok {
		t.Fatal("no trace recorded")
	}
	if snap.Name != "epoch" || snap.ID == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.Attrs) != 1 || snap.Attrs[0] != (Attr{Key: "epoch", Value: 7}) {
		t.Fatalf("trace attrs = %+v", snap.Attrs)
	}
	wantParents := map[string]int{"ingest": -1, "identify": -1, "fingerprint": 1, "match": 1}
	if len(snap.Spans) != len(wantParents) {
		t.Fatalf("spans = %+v", snap.Spans)
	}
	for i, sp := range snap.Spans {
		if want, ok := wantParents[sp.Name]; !ok || sp.Parent != want {
			t.Fatalf("span %d %q parent = %d, want %d", i, sp.Name, sp.Parent, want)
		}
		if sp.DurationSeconds < 0 || sp.StartOffsetSeconds < 0 {
			t.Fatalf("span %q has negative timing: %+v", sp.Name, sp)
		}
	}
	if snap.Spans[3].Attrs[0] != (Attr{Key: "candidates", Value: 3}) {
		t.Fatalf("match attrs = %+v", snap.Spans[3].Attrs)
	}

	// Snapshots must be JSON-encodable for the /traces endpoint.
	if _, err := json.Marshal(tracer.Snapshots()); err != nil {
		t.Fatal(err)
	}
}

// TestTraceEndClosesOpenSpans: a trace ended with spans still open must
// close them rather than leak zero end times, and a second trace End must
// not double-file.
func TestTraceEndClosesOpenSpans(t *testing.T) {
	tracer := NewTracer(2)
	tr := tracer.StartTrace("epoch")
	tr.StartSpan("ingest") // never ended
	sp := tr.StartSpan("filter")
	sp.End()
	sp.End() // double span End is a no-op
	tr.End()
	tr.End() // double trace End files once

	if got := tracer.Total(); got != 1 {
		t.Fatalf("Total = %d, want 1", got)
	}
	snap, _ := latest(tracer)
	for _, s := range snap.Spans {
		if s.DurationSeconds < 0 {
			t.Fatalf("span %q not closed: %+v", s.Name, s)
		}
	}
}

// TestTraceRetention: the ring keeps exactly the configured N most recent
// traces under concurrent trace production (run with -race).
func TestTraceRetention(t *testing.T) {
	const capacity = 16
	const workers = 8
	const perWorker = 50
	tracer := NewTracer(capacity)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr := tracer.StartTrace(fmt.Sprintf("epoch-%d-%d", w, i))
				sp := tr.StartSpan("ingest")
				sp.SetAttr("machines", int64(i))
				sp.End()
				tr.End()
			}
		}(w)
	}
	wg.Wait()

	if got := tracer.Total(); got != workers*perWorker {
		t.Fatalf("Total = %d, want %d", got, workers*perWorker)
	}
	snaps := tracer.Snapshots()
	if len(snaps) != capacity {
		t.Fatalf("retained %d traces, want exactly %d", len(snaps), capacity)
	}
	seen := map[uint64]bool{}
	for _, s := range snaps {
		if seen[s.ID] {
			t.Fatalf("trace %d retained twice", s.ID)
		}
		seen[s.ID] = true
	}
}

// TestTraceSnapshotOrder: snapshots come back most recently completed
// first, and the ring evicts oldest-first once full.
func TestTraceSnapshotOrder(t *testing.T) {
	tracer := NewTracer(3)
	for i := 0; i < 5; i++ {
		tracer.StartTrace(fmt.Sprintf("t%d", i)).End()
	}
	snaps := tracer.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("retained %d, want 3", len(snaps))
	}
	for i, want := range []string{"t4", "t3", "t2"} {
		if snaps[i].Name != want {
			t.Fatalf("snapshot %d = %q, want %q (order %v)", i, snaps[i].Name, want, snaps)
		}
	}
}

// TestDisabledTracingZeroAlloc is the hard guarantee the monitor hot path
// relies on: with a disabled (nil) tracer the whole span path allocates
// nothing at all.
func TestDisabledTracingZeroAlloc(t *testing.T) {
	tracer := NewTracer(0) // capacity < 1 = disabled
	if tracer.Enabled() {
		t.Fatal("capacity-0 tracer should be disabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr := tracer.StartTrace("epoch")
		tr.SetAttr("epoch", 1)
		sp := tr.StartSpan("ingest")
		sp.SetAttr("machines", 100)
		inner := tr.StartSpan("filter")
		inner.End()
		sp.End()
		tr.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %v bytes-equivalents/op, want 0", allocs)
	}
	if got := tracer.Snapshots(); len(got) != 0 {
		t.Fatalf("disabled tracer retained %d traces", len(got))
	}
	if _, ok := latest(tracer); ok {
		t.Fatal("disabled tracer has a latest trace")
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	tracer := NewTracer(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := tracer.StartTrace("epoch")
		sp := tr.StartSpan("ingest")
		sp.SetAttr("machines", 100)
		sp.End()
		tr.End()
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	tracer := NewTracer(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := tracer.StartTrace("epoch")
		sp := tr.StartSpan("ingest")
		sp.SetAttr("machines", 100)
		sp.End()
		tr.End()
	}
}

// latest returns the most recently completed trace, ok=false when none.
func latest(t *Tracer) (TraceSnapshot, bool) {
	snaps := t.Snapshots()
	if len(snaps) == 0 {
		return TraceSnapshot{}, false
	}
	return snaps[0], true
}
