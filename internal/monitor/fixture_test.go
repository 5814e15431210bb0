package monitor

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
)

// The fixtures are checkpoints, gzipped, that WriteCheckpoint wrote after
// fixtureEpochs epochs of fixtureRun with meta "fixture". The version-1 file
// dates from when the checkpoint still carried the epoch, the last summary,
// the degraded count, the crisis counter, the active start and every
// crisis's ID beside the state they derive from; the version-2 one from the
// first build that wrote version 2. They are never rewritten: they stand for
// the files older builds left on disk.
const (
	fixtureV1     = "testdata/checkpoint-v1.ckpt.gz"
	fixtureV2     = "testdata/checkpoint-v2.ckpt.gz"
	fixtureEpochs = 46
)

// fixtureRun is the fixture's seeded stream and monitor configuration: ten
// machines, a four-epoch ring, thresholds from epoch 16, forecast on, and six
// scripted crises. The first closes before thresholds exist, so it is never
// stored; the next two are stored and labelled; the fourth is open at the
// snapshot, with advice given against the two labelled ones; the last two
// arrive during the replay. Epochs 9 and 27 lose six of the ten machines and
// are degraded; every seventh epoch carries a NaN and an Inf cell; the first
// epoch after the snapshot has no finite value of metric 2.
func fixtureRun(t *testing.T) (*fixtureDriver, Config) {
	t.Helper()
	scfg := dcsim.DefaultStreamConfig(5)
	scfg.Machines = 10
	scfg.WarmupEpochs = 4
	for _, c := range []dcsim.ScriptedCrisis{
		{Start: 5, Duration: 4, Type: crisis.TypeA},
		{Start: 18, Duration: 5, Type: crisis.TypeB},
		{Start: 30, Duration: 5, Type: crisis.TypeB},
		{Start: 42, Duration: 8, Type: crisis.TypeB},
		{Start: 66, Duration: 6, Type: crisis.TypeA},
		{Start: 84, Duration: 6, Type: crisis.TypeB},
	} {
		scfg.Script = append(scfg.Script, c)
	}
	s, err := dcsim.NewStream(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(s.Catalog(), s.SLA())
	cfg.ThresholdRefreshEpochs = 16
	cfg.MinEpochsForThresholds = 16
	cfg.RawPad = 4
	cfg.Workers = 1
	cfg.Forecast = DefaultForecastConfig()
	return &fixtureDriver{s: s}, cfg
}

// fixtureDriver feeds fixtureRun's stream to monitors and labels each crisis
// with its injected type when it closes.
type fixtureDriver struct {
	s          *dcsim.Stream
	e          int
	label      string
	lastActive bool
}

// step feeds the next epoch to every monitor and returns their reports.
func (d *fixtureDriver) step(t *testing.T, ms ...*Monitor) []*EpochReport {
	t.Helper()
	src, act, err := d.s.Next()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, len(src))
	for i, row := range src {
		rows[i] = append([]float64(nil), row...)
	}
	if d.e == 9 || d.e == 27 {
		for i := 0; i < 6; i++ {
			rows[i] = nil
		}
	}
	if d.e%7 == 3 {
		rows[8][2], rows[9][5] = math.NaN(), math.Inf(-1)
	}
	if d.e == fixtureEpochs {
		// No machine reports metric 2, whose summary is then carried forward
		// from the last epoch before the snapshot.
		for _, row := range rows {
			row[2] = math.NaN()
		}
	}
	d.e++
	reps := make([]*EpochReport, len(ms))
	for i, m := range ms {
		if reps[i], err = m.ObserveEpoch(rows); err != nil {
			t.Fatal(err)
		}
	}
	if act != nil {
		d.label = fmt.Sprintf("type-%d", act.Type)
	}
	if d.lastActive && !reps[0].CrisisActive {
		recs := ms[0].Crises()
		for _, m := range ms {
			if err := m.ResolveCrisis(recs[len(recs)-1].ID, d.label); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.lastActive = reps[0].CrisisActive
	return reps
}

// readFixture restores a committed checkpoint into a new monitor.
func readFixture(t *testing.T, cfg Config, fixtureCheckpoint string) *Monitor {
	t.Helper()
	raw, err := os.ReadFile(fixtureCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := m.ReadCheckpoint(zr)
	if err != nil {
		t.Fatalf("%s: %v", fixtureCheckpoint, err)
	}
	if meta.SourceEpoch != fixtureEpochs-1 || string(meta.Extra) != "fixture" {
		t.Fatalf("%s: meta %+v", fixtureCheckpoint, meta)
	}
	return m
}

// TestCheckpointFixtureReplays restores each committed checkpoint and
// replays the stream after it: every report, the crisis records, the stats,
// every audit record and the checkpoint the monitor saves must equal an
// uninterrupted run's.
func TestCheckpointFixtureReplays(t *testing.T) {
	for _, f := range []struct{ name, file string }{{"v1", fixtureV1}, {"v2", fixtureV2}} {
		t.Run(f.name, func(t *testing.T) { replayFixture(t, f.file) })
	}
}

func replayFixture(t *testing.T, fixtureCheckpoint string) {
	const replay = 60
	d, cfg := fixtureRun(t)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for d.e < fixtureEpochs {
		d.step(t, a)
	}
	b := readFixture(t, cfg, fixtureCheckpoint)
	if b.Epoch() != a.Epoch() {
		t.Fatalf("restored monitor at epoch %d, uninterrupted run at %d", b.Epoch(), a.Epoch())
	}
	if got, want := b.Crises(), a.Crises(); !reflect.DeepEqual(got, want) {
		t.Fatalf("crisis records diverge:\nuninterrupted: %+v\nrestored:      %+v", want, got)
	}
	sameCheckpoint(t, a, b)
	// The state the fixture was written to cover.
	var unstored, storedLabelled, openExplained bool
	for _, c := range b.Crises() {
		expl, _ := b.Explanations(c.ID)
		unstored = unstored || (!c.Stored && !c.Active)
		storedLabelled = storedLabelled || (c.Stored && c.Label != "")
		openExplained = openExplained || (c.Active && len(expl) > 0)
	}
	full := true
	for _, slot := range b.st.Ring {
		full = full && len(slot.Viol) > 0
	}
	if st := b.Stats(); !unstored || !storedLabelled || !openExplained || !full || st.DegradedEpochs == 0 || b.fc == nil {
		t.Fatalf("fixture lacks a state it should cover: unstored crisis %v, stored labelled crisis %v, open crisis with explanations %v, full ring %v, degraded epochs %d, forecast %v",
			unstored, storedLabelled, openExplained, full, st.DegradedEpochs, b.fc != nil)
	}
	advised := 0
	for i := 0; i < replay; i++ {
		reps := d.step(t, a, b)
		if !reflect.DeepEqual(reps[0], reps[1]) {
			t.Fatalf("epoch %d after restore: reports diverge:\nuninterrupted: %+v\nrestored:      %+v", reps[0].Epoch, reps[0], reps[1])
		}
		if reps[0].Advice != nil && reps[0].Advice.Candidates > 0 {
			advised++
		}
	}
	if advised == 0 {
		t.Fatal("no advice after the restore compared a labelled crisis")
	}
	if got, want := b.Crises(), a.Crises(); !reflect.DeepEqual(got, want) {
		t.Fatalf("crisis records diverge after replay:\nuninterrupted: %+v\nrestored:      %+v", want, got)
	}
	sameCheckpoint(t, a, b)
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Fatalf("stats diverge after replay:\nuninterrupted: %+v\nrestored:      %+v", a.Stats(), b.Stats())
	}
	for _, c := range a.Crises() {
		ea, _ := a.Explanations(c.ID)
		eb, _ := b.Explanations(c.ID)
		if !reflect.DeepEqual(ea, eb) {
			t.Fatalf("crisis %s: audit records diverge after replay", c.ID)
		}
	}
}

// sameCheckpoint fails unless the restored monitor b saves the bytes the
// uninterrupted monitor a does: state a replay might not reach yet, such as
// the ring's epochs, must match too.
func sameCheckpoint(t *testing.T, a, b *Monitor) {
	t.Helper()
	var wa, wb bytes.Buffer
	if err := a.WriteCheckpoint(&wa, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCheckpoint(&wb, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
		t.Fatalf("epoch %d: the restored monitor saves %d bytes that differ from the uninterrupted run's %d", a.Epoch(), wb.Len(), wa.Len())
	}
}
