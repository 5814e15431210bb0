package logreg_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"dcfp/internal/core"
	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/logreg"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
)

// checkpointView is the slice of the monitor's checkpoint this test reads:
// whether the newest crisis is open, its collected samples (one metric-major
// block, X[j*len(Viol)+i] for machine i and metric j) and each crisis's
// selected metrics (once it has closed). gob matches fields by name and
// skips the rest.
type checkpointView struct {
	State struct {
		Open    bool
		Samples struct {
			X    []float64
			Viol []bool
		}
		Crises []struct{ State struct{ Top []int } }
	}
}

// rows is the view's open-crisis samples as rows with 0/1 labels.
func (v checkpointView) rows() ([][]float64, []int) {
	b := v.State.Samples
	n := len(b.Viol)
	x, y := make([][]float64, n), make([]int, n)
	for i := range x {
		for j := 0; j < len(b.X)/n; j++ {
			x[i] = append(x[i], b.X[j*n+i])
		}
		if b.Viol[i] {
			y[i] = 1
		}
	}
	return x, y
}

func viewCheckpoint(t *testing.T, m *monitor.Monitor) checkpointView {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteCheckpoint(&buf, monitor.CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	var v checkpointView
	const header = len("DCFPCKPT") + 4
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes()[header:])).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// closedCrisis is one crisis a monitor closed: the samples it collected
// (read back from the last checkpoint taken while it was open) and the
// metrics its in-place selection kept.
type closedCrisis struct {
	id  string
	x   [][]float64
	y   []int
	top []int
	k   int // the monitor's per-crisis top k
}

// monitorCrises drives a 40-machine monitor over the benchmark's scripted
// A–D crisis rotation and returns every crisis it closes, checking that each
// held 17 epochs' worth of samples (as on the benchmark's crisis-100, 1 700
// rows there: the full ring, the detection epoch twice, the other open
// epochs) and dropped them at close.
func monitorCrises(t *testing.T, crises int) []closedCrisis {
	t.Helper()
	const machines, warmup, cycle = 40, 200, 32
	sc := dcsim.DefaultStreamConfig(15)
	sc.Machines = machines
	sc.WarmupEpochs = warmup
	types := []crisis.Type{crisis.TypeA, crisis.TypeB, crisis.TypeC, crisis.TypeD}
	for i := 0; i < crises; i++ {
		sc.Script = append(sc.Script, dcsim.ScriptedCrisis{
			Start: metrics.Epoch(warmup + i*cycle + 8), Duration: 8, Type: types[i%len(types)],
		})
	}
	stream, err := dcsim.NewStream(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := monitor.DefaultConfig(stream.Catalog(), stream.SLA())
	cfg.Workers = 1
	cfg.MinEpochsForThresholds = metrics.EpochsPerDay
	mon, err := monitor.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var open checkpointView // the last checkpoint taken with a crisis open
	var closed []closedCrisis
	for e := 0; e < warmup+crises*cycle; e++ {
		rows, _, err := stream.Next()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mon.ObserveEpoch(rows)
		if err != nil {
			t.Fatal(err)
		}
		if rep.CrisisActive {
			open = viewCheckpoint(t, mon)
			continue
		}
		if !open.State.Open {
			continue
		}
		// This epoch closed the crisis that was open one epoch ago.
		idx := len(open.State.Crises) - 1
		x, y := open.rows()
		after := viewCheckpoint(t, mon)
		open = checkpointView{}
		id := mon.Crises()[idx].ID
		what := fmt.Sprintf("%s (%d samples)", id, len(x))
		if after.State.Open || len(after.State.Samples.Viol) != 0 {
			t.Fatalf("%s: samples still held after the crisis closed", what)
		}
		if want := 17 * machines; len(x) != want {
			t.Fatalf("%s: want %d", what, want)
		}
		closed = append(closed, closedCrisis{id, x, y, after.State.Crises[idx].State.Top, cfg.Selection.PerCrisisTopK})
	}
	if len(closed) != crises {
		t.Fatalf("closed %d of %d scripted crises", len(closed), crises)
	}
	return closed
}

// TestOraclePerCrisisOnMonitorSamples checks, for every crisis a monitor
// closes over the scripted rotation, the whole chain on the samples it
// really collected: the monitor's selection, which standardizes its
// per-epoch blocks in place, equals the public copy-in core.PerCrisisMetrics,
// and logreg.SelectTopK on those samples equals the row-oriented reference
// bit for bit, with every column gradient it screens computed anyway and
// held to the screening certificate, and every backtracking test it
// certifies decided exactly and held to the reference.
func TestOraclePerCrisisOnMonitorSamples(t *testing.T) {
	crises := 8
	if testing.Short() {
		crises = 4
	}
	selected := 0
	for _, c := range monitorCrises(t, crises) {
		what := fmt.Sprintf("%s (%d samples)", c.id, len(c.x))
		public, err := core.PerCrisisMetrics(core.CrisisSamples{X: c.x, Y: c.y}, c.k)
		if err != nil {
			t.Fatalf("%s: PerCrisisMetrics: %v", what, err)
		}
		if fmt.Sprint(c.top) != fmt.Sprint(public) {
			t.Fatalf("%s: monitor selected %v in place, PerCrisisMetrics %v on a copy", what, c.top, public)
		}
		selected += len(public)

		wantTop, want, err := logreg.OracleSelectTopK(c.x, c.y, c.k)
		if err != nil {
			t.Fatalf("%s: oracle: %v", what, err)
		}
		release, releaseCert := logreg.HoldScreen(t), logreg.HoldCert(t)
		top, got, err := logreg.SelectTopK(c.x, c.y, c.k)
		if err != nil {
			t.Fatalf("%s: SelectTopK: %v", what, err)
		}
		if release() == 0 {
			t.Fatalf("%s: no column gradient was screened, so none was checked", what)
		}
		if releaseCert() == 0 {
			t.Fatalf("%s: no backtracking test was certified, so none was checked", what)
		}
		if fmt.Sprint(top) != fmt.Sprint(wantTop) {
			t.Fatalf("%s: SelectTopK ranks %v, oracle %v", what, top, wantTop)
		}
		logreg.SameModel(t, what, got, want)
		// PerCrisisMetrics keeps a prefix-order subset of the ranking.
		rank := 0
		for _, j := range public {
			for rank < len(wantTop) && wantTop[rank] != j {
				rank++
			}
			if rank == len(wantTop) {
				t.Fatalf("%s: selected %v is not an ordered subset of the oracle ranking %v", what, public, wantTop)
			}
		}
	}
	if selected == 0 {
		t.Fatal("no metric selected over all scripted crises")
	}
}

// TestCertFires: the curvature certificate accepts at least 95 % of the
// path's backtracking tests that accept (one per iteration), on the
// benchmark's generator and on every crisis a monitor closes over the
// scripted rotation, so a refactor cannot turn the optimisation off without
// failing here.
func TestCertFires(t *testing.T) {
	check := func(what string, s *logreg.Samples, k int) {
		t.Helper()
		_, _, st, err := s.SelectTopK(k)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		t.Logf("%s: %d of %d iterations certified (%.2f %%), %d exact tests", what, st.Certified, st.Iters, 100*float64(st.Certified)/float64(st.Iters), st.ExactChecks)
		if 100*st.Certified < 95*st.Iters {
			t.Fatalf("%s: certified %d tests over %d iterations, want at least 95 %%", what, st.Certified, st.Iters)
		}
	}
	s, err := logreg.LatentSamples(1700, 100)
	if err != nil {
		t.Fatal(err)
	}
	check("generator 1700x100", s, 10)
	crises := 8
	if testing.Short() {
		crises = 4
	}
	for _, c := range monitorCrises(t, crises) {
		s, err := logreg.NewSamples(c.x, c.y)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%s (%d samples)", c.id, len(c.x)), s, c.k)
	}
}
