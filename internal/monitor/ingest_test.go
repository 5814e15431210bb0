package monitor

import (
	"reflect"
	"testing"

	"dcfp/internal/metrics"
	"dcfp/internal/sla"
)

// ingestMonitor builds a small monitor suitable for sequencing tests.
func ingestMonitor(t *testing.T) *Monitor {
	t.Helper()
	cat, err := metrics.NewCatalog([]string{"m0", "m1", "m2", "m3", "m4", "m5"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(cat, sla.Config{
		KPIs:           []sla.KPI{{Name: "m0", Metric: 0, Threshold: 100}},
		CrisisFraction: 0.10,
	})
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func ingestRows(seed float64) [][]float64 {
	rows := make([][]float64, 6)
	for i := range rows {
		rows[i] = []float64{seed + float64(i), 10, 10, 10, 10, 10}
	}
	return rows
}

func TestIngestorInOrderPassthrough(t *testing.T) {
	in, err := NewIngestor(ingestMonitor(t), DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for e := metrics.Epoch(0); e < 5; e++ {
		reps, err := in.Ingest(e, ingestRows(float64(e)))
		if err != nil {
			t.Fatal(err)
		}
		if len(reps) != 1 || reps[0].Epoch != e {
			t.Fatalf("epoch %d: got %d reports", e, len(reps))
		}
	}
	if buffered, next := in.Pending(); buffered != 0 || next != 5 {
		t.Fatalf("pending = (%d, %d), want (0, 5)", buffered, next)
	}
}

func TestIngestorReorderAndDuplicate(t *testing.T) {
	in, err := NewIngestor(ingestMonitor(t), DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}
	must := func(e metrics.Epoch, rows [][]float64) []*EpochReport {
		t.Helper()
		reps, err := in.Ingest(e, rows)
		if err != nil {
			t.Fatal(err)
		}
		return reps
	}
	must(0, ingestRows(0))
	// Epoch 2 arrives before 1: buffered, no report yet.
	if reps := must(2, ingestRows(2)); len(reps) != 0 {
		t.Fatalf("early epoch produced %d reports, want 0 (buffered)", len(reps))
	}
	// Duplicate of the buffered epoch: dropped.
	if reps := must(2, ingestRows(2)); len(reps) != 0 {
		t.Fatal("duplicate of buffered epoch must be dropped")
	}
	// Duplicate of an already-observed epoch: dropped.
	if reps := must(0, ingestRows(0)); len(reps) != 0 {
		t.Fatal("duplicate of observed epoch must be dropped")
	}
	// The straggler unblocks both.
	reps := must(1, ingestRows(1))
	if len(reps) != 2 {
		t.Fatalf("straggler produced %d reports, want 2", len(reps))
	}
	if buffered, next := in.Pending(); buffered != 0 || next != 3 {
		t.Fatalf("pending = (%d, %d), want (0, 3)", buffered, next)
	}
}

func TestIngestorLosesEpochsPastWindow(t *testing.T) {
	in, err := NewIngestor(ingestMonitor(t), IngestConfig{ReorderWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Ingest(0, ingestRows(0)); err != nil {
		t.Fatal(err)
	}
	// Epoch 1 never arrives. 2 and 3 buffer inside the window...
	for _, e := range []metrics.Epoch{2, 3} {
		reps, err := in.Ingest(e, ingestRows(float64(e)))
		if err != nil {
			t.Fatal(err)
		}
		if len(reps) != 0 {
			t.Fatalf("epoch %d should still be buffered", e)
		}
	}
	// ...and 4 pushes the span past the window: 1 is declared lost, 2-4 drain.
	reps, err := in.Ingest(4, ingestRows(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("window overflow produced %d reports, want 3 (epochs 2,3,4)", len(reps))
	}
	if buffered, next := in.Pending(); buffered != 0 || next != 5 {
		t.Fatalf("pending = (%d, %d), want (0, 5)", buffered, next)
	}
	// The lost epoch never resurrects: a late 1 is now a duplicate/stale drop.
	reps, err = in.Ingest(1, ingestRows(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 0 {
		t.Fatal("late arrival of a lost epoch must be dropped")
	}
}

func TestIngestorBufferIsolatedFromCallerReuse(t *testing.T) {
	in, err := NewIngestor(ingestMonitor(t), DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Ingest(0, ingestRows(0)); err != nil {
		t.Fatal(err)
	}
	rows := ingestRows(2)
	want := ingestRows(2)
	if _, err := in.Ingest(2, rows); err != nil {
		t.Fatal(err)
	}
	// Caller reuses its buffer (as dcsim.Stream does) before the straggler.
	for i := range rows {
		for j := range rows[i] {
			rows[i][j] = -999
		}
	}
	st := in.State()
	if len(st.Buffered) != 1 || !reflect.DeepEqual(st.Buffered[0].Rows, want) {
		t.Fatalf("buffered rows were clobbered by caller reuse: %+v", st.Buffered)
	}
}

// TestIngestorReusesDrainedStorage: an early epoch is copied into the
// storage of one already drained, so steady reordering allocates less than
// once per buffered row (a copy per row used to cost one allocation each).
func TestIngestorReusesDrainedStorage(t *testing.T) {
	const machines = 64
	in, err := NewIngestor(ingestMonitor(t), DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}
	early, next := make([][]float64, machines), make([][]float64, machines)
	for i := range early {
		early[i] = []float64{float64(i), 10, 10, 10, 10, 10}
		next[i] = []float64{float64(i) + 0.5, 10, 10, 10, 10, 10}
	}
	e := metrics.Epoch(0)
	pair := func() {
		if _, err := in.Ingest(e+1, early); err != nil {
			t.Fatal(err)
		}
		if reps, err := in.Ingest(e, next); err != nil || len(reps) != 2 {
			t.Fatalf("epoch %d: %d reports, err %v; want the straggler and the buffered epoch", e, len(reps), err)
		}
		e += 2
	}
	pair()
	if avg := testing.AllocsPerRun(50, pair); avg >= machines {
		t.Errorf("a buffered epoch of %d rows and its straggler allocate %.0f objects, want fewer than one per row", machines, avg)
	}
}

func TestIngestorStateRoundTrip(t *testing.T) {
	in, err := NewIngestor(ingestMonitor(t), DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Ingest(0, ingestRows(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Ingest(2, ingestRows(2)); err != nil {
		t.Fatal(err)
	}
	st := in.State()
	if st.Next != 1 || len(st.Buffered) != 1 || st.Buffered[0].Epoch != 2 {
		t.Fatalf("state = %+v, want next=1 with epoch 2 buffered", st)
	}

	in2, err := NewIngestor(ingestMonitor(t), DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := in2.SetState(st); err != nil {
		t.Fatal(err)
	}
	reps, err := in2.Ingest(1, ingestRows(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("restored ingestor drained %d reports, want 2", len(reps))
	}

	// Invalid states are rejected.
	if err := in2.SetState(IngestorState{Next: -1}); err == nil {
		t.Fatal("negative next must be rejected")
	}
	if err := in2.SetState(IngestorState{Next: 5, Buffered: []BufferedEpoch{{Epoch: 4}}}); err == nil {
		t.Fatal("buffered epoch behind next must be rejected")
	}
	if err := in2.SetState(IngestorState{Next: 1, Buffered: []BufferedEpoch{{Epoch: 3}, {Epoch: 3}}}); err == nil {
		t.Fatal("duplicate buffered epoch must be rejected")
	}
}
