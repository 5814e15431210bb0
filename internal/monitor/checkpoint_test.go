package monitor

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dcfp/internal/core"
	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/metrics"
)

// TestCheckpointRoundTripByteIdentical is the restore guarantee: run a
// monitor over a seeded trace, snapshot mid-stream (mid-crisis when one is
// open), restore the snapshot into a fresh monitor, and replay the next 50
// epochs into both. With the default exact estimator every EpochReport —
// statuses, advice, distances — must be identical, as must the final stats
// and crisis records.
func TestCheckpointRoundTripByteIdentical(t *testing.T) {
	const seed, total, replay = 42, 420, 50
	s := equivStream(t, seed)
	a := equivMonitor(t, s, 1, nil)

	// Run until a crisis is active past epoch 150 (so thresholds exist and
	// the snapshot covers an open episode), then snapshot.
	lastActive := false
	label := ""
	snapAt := -1
	resolve := func(m *Monitor, id string) {
		t.Helper()
		if err := m.ResolveCrisis(id, label); err != nil {
			t.Fatal(err)
		}
	}
	var e int
	for e = 0; e < total; e++ {
		rows, act, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.ObserveEpoch(rows)
		if err != nil {
			t.Fatal(err)
		}
		if act != nil {
			label = fmt.Sprintf("type-%d", act.Type)
		}
		if lastActive && !rep.CrisisActive {
			recs := a.Crises()
			resolve(a, recs[len(recs)-1].ID)
		}
		lastActive = rep.CrisisActive
		if e > 150 && rep.CrisisActive {
			snapAt = e
			break
		}
	}
	if snapAt < 0 {
		t.Fatal("no crisis became active after epoch 150; trace unsuitable")
	}

	var buf bytes.Buffer
	if err := a.WriteCheckpoint(&buf, CheckpointMeta{SourceEpoch: int64(snapAt), Extra: []byte("daemon")}); err != nil {
		t.Fatal(err)
	}
	b := equivMonitor(t, s, 1, nil)
	meta, err := b.ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if meta.SourceEpoch != int64(snapAt) || string(meta.Extra) != "daemon" {
		t.Fatalf("restored meta %+v, want source %d / extra daemon", meta, snapAt)
	}
	if b.Epoch() != a.Epoch() {
		t.Fatalf("restored monitor at epoch %d, original %d", b.Epoch(), a.Epoch())
	}
	// The open crisis's samples live in per-epoch metric-major blocks and are
	// checkpointed as rows: the conversion must lose nothing either way.
	open := a.past[a.activeIdx].fs
	if n := open.Len(); n == 0 || b.past[b.activeIdx].fs.Len() != n {
		t.Fatalf("open crisis holds %d samples, restored %d", n, b.past[b.activeIdx].fs.Len())
	}
	ax, ay := open.Rows()
	bx, by := b.past[b.activeIdx].fs.Rows()
	if !reflect.DeepEqual(ax, bx) || !reflect.DeepEqual(ay, by) {
		t.Fatal("restored crisis samples differ from the original's")
	}

	// Replay the next epochs into both monitors; reports must be identical.
	for i := 0; i < replay; i++ {
		rows, act, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		ra, err := a.ObserveEpoch(rows)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.ObserveEpoch(rows)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("epoch +%d after restore: reports diverge:\noriginal: %+v\nrestored: %+v", i+1, ra, rb)
		}
		if act != nil {
			label = fmt.Sprintf("type-%d", act.Type)
		}
		if lastActive && !ra.CrisisActive {
			recs := a.Crises()
			id := recs[len(recs)-1].ID
			resolve(a, id)
			resolve(b, id)
		}
		lastActive = ra.CrisisActive
	}
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Fatalf("stats diverge after replay:\noriginal: %+v\nrestored: %+v", a.Stats(), b.Stats())
	}
	if got, want := b.Crises(), a.Crises(); !reflect.DeepEqual(got, want) {
		t.Fatalf("crisis records diverge:\noriginal: %+v\nrestored: %+v", want, got)
	}
}

// TestCheckpointSaveLoadFile exercises the atomic file path: save, load
// into a fresh monitor, and confirm a second save replaces the first.
func TestCheckpointSaveLoadFile(t *testing.T) {
	const seed = 9
	dir := t.TempDir()
	s := equivStream(t, seed)
	m := equivMonitor(t, s, 1, nil)
	for i := 0; i < 100; i++ {
		rows, _, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.ObserveEpoch(rows); err != nil {
			t.Fatal(err)
		}
	}
	path, err := m.SaveCheckpoint(dir, CheckpointMeta{SourceEpoch: 99}, 2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != CheckpointFileName {
		t.Fatalf("checkpoint written to %q", path)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir holds %d entries, want 1", len(entries))
	}

	restored := equivMonitor(t, s, 1, nil)
	meta, ok, err := LoadCheckpoint(dir, restored)
	if err != nil || !ok {
		t.Fatalf("LoadCheckpoint = (%+v, %v, %v)", meta, ok, err)
	}
	if meta.SourceEpoch != 99 || restored.Epoch() != 100 {
		t.Fatalf("restored source=%d epoch=%d, want 99/100", meta.SourceEpoch, restored.Epoch())
	}

	// A newer save atomically replaces the old checkpoint.
	rows, _, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ObserveEpoch(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SaveCheckpoint(dir, CheckpointMeta{SourceEpoch: 100}, 0, 0); err != nil {
		t.Fatal(err)
	}
	again := equivMonitor(t, s, 1, nil)
	meta, ok, err = LoadCheckpoint(dir, again)
	if err != nil || !ok || meta.SourceEpoch != 100 {
		t.Fatalf("second load = (%+v, %v, %v), want source 100", meta, ok, err)
	}

	// Missing checkpoint is a clean cold start, not an error.
	cold := equivMonitor(t, s, 1, nil)
	if _, ok, err := LoadCheckpoint(t.TempDir(), cold); ok || err != nil {
		t.Fatalf("empty dir load = (%v, %v), want cold start", ok, err)
	}
}

// TestCheckpointCorruptLeavesMonitorUntouched feeds broken checkpoint bytes
// and asserts the monitor keeps its pre-restore state on every failure.
func TestCheckpointCorruptLeavesMonitorUntouched(t *testing.T) {
	const seed = 11
	s := equivStream(t, seed)
	m := equivMonitor(t, s, 1, nil)
	for i := 0; i < 20; i++ {
		rows, _, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.ObserveEpoch(rows); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.WriteCheckpoint(&buf, CheckpointMeta{SourceEpoch: 19}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("NOTCKPT!"), good[8:]...),
		"bad version": append(append([]byte{}, good[:8]...), append([]byte{0xff, 0xff, 0xff, 0xff}, good[12:]...)...),
		"truncated":   good[:len(good)/2],
		"bit flipped": flipByte(good, len(good)-10),
	}
	for name, data := range cases {
		fresh := equivMonitor(t, s, 1, nil)
		if _, err := fresh.ReadCheckpoint(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: restore should fail", name)
		}
		if fresh.Epoch() != 0 {
			t.Fatalf("%s: failed restore mutated the monitor (epoch %d)", name, fresh.Epoch())
		}
	}

	// restore re-encodes the good payload after edit and restores it into a
	// fresh monitor.
	restore := func(edit func(*checkpointPayload, int)) (*Monitor, error) {
		var f checkpointFile
		if err := gob.NewDecoder(bytes.NewReader(good[len(checkpointMagic)+4:])).Decode(&f); err != nil {
			t.Fatal(err)
		}
		edit(&f.State, (f.State.RingPos+len(f.State.RawRing)-1)%len(f.State.RawRing))
		data := bytes.NewBuffer(append([]byte(nil), good[:len(checkpointMagic)+4]...))
		if err := gob.NewEncoder(data).Encode(&f); err != nil {
			t.Fatal(err)
		}
		fresh := equivMonitor(t, s, 1, nil)
		_, err := fresh.ReadCheckpoint(data)
		return fresh, err
	}
	// Two finalized crises, numbered and kept as beginCrisis and endCrisis
	// leave them.
	twoPast := func(p *checkpointPayload) {
		p.Past = []checkpointCrisis{{ID: "crisis-001", Start: 4}, {ID: "crisis-002", Start: 12}}
		p.NextID, p.ActiveIdx, p.ActiveStart = 2, -1, 12
	}
	for name, consistent := range map[string]func(*checkpointPayload, int){
		"two finalized crises": func(p *checkpointPayload, _ int) { twoPast(p) },
		"newest crisis open":   func(p *checkpointPayload, _ int) { twoPast(p); p.ActiveIdx = 1 },
	} {
		if m, err := restore(consistent); err != nil || m.Epoch() != 20 {
			t.Fatalf("%s: restore err = %v, epoch %d; want a restored monitor", name, err, m.Epoch())
		}
	}
	// Decoded payloads that gob accepts but the monitor must not: sample
	// rows of the wrong width would poison the open crisis's buffer, and a
	// ring slot with fewer violation flags than rows would panic the next
	// detection when the slot's rows are labelled.
	for name, corrupt := range map[string]func(*checkpointPayload, int){
		"narrow ring row": func(p *checkpointPayload, slot int) {
			p.RawRing[slot][0] = p.RawRing[slot][0][:3]
		},
		"misaligned ring slot": func(p *checkpointPayload, slot int) {
			p.ViolRing[slot] = p.ViolRing[slot][:len(p.RawRing[slot])-1]
		},
		// A monitor's store holds rows three quantiles per catalog metric
		// wide; identification trusts that.
		"store width": func(p *checkpointPayload, _ int) {
			p.Store = core.NewStore()
			if err := p.Store.Add("c", "", 0, [][]float64{{1, 2, 3, 4, 5, 6}}); err != nil {
				t.Fatal(err)
			}
		},
		// The next detection would re-issue crisis-002, and ResolveCrisis
		// and Explanations would find the older crisis of that ID.
		"next id reissues a past id": func(p *checkpointPayload, _ int) { twoPast(p); p.NextID = 1 },
		"duplicate crisis id":        func(p *checkpointPayload, _ int) { twoPast(p); p.Past[1].ID = "crisis-001" },
		"crisis id above next id":    func(p *checkpointPayload, _ int) { twoPast(p); p.Past[1].ID = "crisis-003" },
		"next id below past count": func(p *checkpointPayload, _ int) {
			twoPast(p)
			p.Past[0].ID, p.Past[1].ID, p.NextID = "a", "b", 1
		},
		// endCrisis would store crisis-001 a second time.
		"finalized crisis reopened": func(p *checkpointPayload, _ int) {
			twoPast(p)
			p.ActiveIdx, p.ActiveStart = 0, p.Past[0].Start
		},
		"active start disagrees": func(p *checkpointPayload, _ int) {
			twoPast(p)
			p.ActiveIdx, p.ActiveStart = 1, p.Past[1].Start+1
		},
	} {
		if m, err := restore(corrupt); err == nil || m.Epoch() != 0 {
			t.Fatalf("%s: restore err = %v, epoch %d; want an error and an untouched monitor", name, err, m.Epoch())
		}
	}

	// A corrupt on-disk checkpoint surfaces as an error (caller starts cold).
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, CheckpointFileName), good[:len(good)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := equivMonitor(t, s, 1, nil)
	if _, ok, err := LoadCheckpoint(dir, fresh); err == nil || ok {
		t.Fatalf("corrupt file load = (%v, %v), want error", ok, err)
	}
}

// TestCheckpointRestoresLegacyLastSeen: checkpoints written while the
// monitor kept a per-machine last-seen table carry a LastSeen payload field.
// Gob skips it, so they restore under the same version, into a monitor that
// saves back exactly what it would have written itself.
func TestCheckpointRestoresLegacyLastSeen(t *testing.T) {
	s := equivStream(t, 17)
	m := equivMonitor(t, s, 1, nil)
	for i := 0; i < 30; i++ {
		rows, _, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.ObserveEpoch(rows); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.WriteCheckpoint(&buf, CheckpointMeta{SourceEpoch: 29}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	hdr := len(checkpointMagic) + 4
	var f checkpointFile
	if err := gob.NewDecoder(bytes.NewReader(good[hdr:])).Decode(&f); err != nil {
		t.Fatal(err)
	}

	// The payload as an older build encoded it: every current field, plus
	// LastSeen.
	cur := reflect.ValueOf(f.State)
	fields := make([]reflect.StructField, 0, cur.NumField()+1)
	for i := 0; i < cur.NumField(); i++ {
		fields = append(fields, cur.Type().Field(i))
	}
	fields = append(fields, reflect.StructField{Name: "LastSeen", Type: reflect.TypeOf([]metrics.Epoch(nil))})
	state := reflect.New(reflect.StructOf(fields)).Elem()
	for i := 0; i < cur.NumField(); i++ {
		state.Field(i).Set(cur.Field(i))
	}
	lastSeen := make([]metrics.Epoch, 40)
	for i := range lastSeen {
		lastSeen[i] = 29
	}
	state.Field(cur.NumField()).Set(reflect.ValueOf(lastSeen))
	file := reflect.New(reflect.StructOf([]reflect.StructField{
		{Name: "Meta", Type: reflect.TypeOf(f.Meta)},
		{Name: "State", Type: state.Type()},
	})).Elem()
	file.Field(0).Set(reflect.ValueOf(f.Meta))
	file.Field(1).Set(state)
	legacy := bytes.NewBuffer(append([]byte(nil), good[:hdr]...))
	if err := gob.NewEncoder(legacy).Encode(file.Interface()); err != nil {
		t.Fatal(err)
	}
	// The field is really on the wire.
	back := reflect.New(file.Type())
	if err := gob.NewDecoder(bytes.NewReader(legacy.Bytes()[hdr:])).Decode(back.Interface()); err != nil {
		t.Fatal(err)
	}
	if got := back.Elem().Field(1).FieldByName("LastSeen").Len(); got != len(lastSeen) {
		t.Fatalf("legacy payload carries %d LastSeen entries, want %d", got, len(lastSeen))
	}

	restored := equivMonitor(t, s, 1, nil)
	meta, err := restored.ReadCheckpoint(legacy)
	if err != nil {
		t.Fatalf("legacy checkpoint: %v", err)
	}
	if meta.SourceEpoch != 29 || restored.Epoch() != 30 {
		t.Fatalf("restored source=%d epoch=%d, want 29/30", meta.SourceEpoch, restored.Epoch())
	}
	var again bytes.Buffer
	if err := restored.WriteCheckpoint(&again, meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), good) {
		t.Fatal("a monitor restored from a legacy checkpoint saves different bytes")
	}
}

// TestSaveCheckpointRetriesTransientFailure points the save at a missing
// directory: every attempt fails, the error reports the attempt count, and
// with the directory created the same save succeeds.
func TestSaveCheckpointRetriesTransientFailure(t *testing.T) {
	const seed = 13
	s := equivStream(t, seed)
	m := equivMonitor(t, s, 1, nil)
	rows, _, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ObserveEpoch(rows); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "nope")
	if _, err := m.SaveCheckpoint(missing, CheckpointMeta{}, 2, time.Millisecond); err == nil {
		t.Fatal("save into a missing directory should fail")
	}
	if err := os.Mkdir(missing, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SaveCheckpoint(missing, CheckpointMeta{}, 2, time.Millisecond); err != nil {
		t.Fatalf("save after the directory appeared: %v", err)
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xa5
	return out
}

// TestCheckpointDigest pins the checkpoint bytes of a seeded, scripted run:
// 100 machines, six alternating A/B crises, the last still open at the
// snapshot, forecast on, one worker. Every fifth epoch is dirty — one
// machine delivers nothing, one delivers only NaN, one carries a NaN and an
// Inf cell — so the pre-crisis ring holds compacted and sanitized epochs.
// The digest changes only when the checkpoint's content or format does. It
// re-runs itself alone in a fresh process: gob numbers the types a process
// encodes in the order it first meets them, so earlier tests would shift the
// bytes.
func TestCheckpointDigest(t *testing.T) {
	const alone = "^TestCheckpointDigest$"
	if flag.Lookup("test.run").Value.String() != alone {
		out, err := exec.Command(os.Args[0], "-test.run="+alone).CombinedOutput()
		if err != nil {
			t.Fatalf("in a fresh process: %v\n%s", err, out)
		}
		return
	}
	const (
		seed   = 7
		epochs = 300
		want   = "4a04cdfb1c426e5940106a899cc6210d5a981c6449edf8ff936894bdbcddb52e"
	)
	scfg := dcsim.DefaultStreamConfig(seed)
	scfg.WarmupEpochs = 40
	for i := 0; i < 6; i++ {
		typ := crisis.TypeA
		if i%2 == 1 {
			typ = crisis.TypeB
		}
		scfg.Script = append(scfg.Script, dcsim.ScriptedCrisis{
			Start: metrics.Epoch(52 + 48*i), Duration: 8, Type: typ,
		})
	}
	s, err := dcsim.NewStream(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(s.Catalog(), s.SLA())
	cfg.ThresholdRefreshEpochs = 48
	cfg.MinEpochsForThresholds = 48
	cfg.Workers = 1
	cfg.Forecast = DefaultForecastConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	label, lastActive := "", false
	for e := 0; e < epochs; e++ {
		src, act, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]float64, len(src))
		for i, row := range src {
			rows[i] = append([]float64(nil), row...)
		}
		if e%5 == 0 {
			rows[7] = nil
			for j := range rows[13] {
				rows[13][j] = math.NaN()
			}
			rows[21][3], rows[21][8] = math.NaN(), math.Inf(1)
		}
		rep, err := m.ObserveEpoch(rows)
		if err != nil {
			t.Fatal(err)
		}
		if act != nil {
			label = fmt.Sprintf("type-%d", act.Type)
		}
		if lastActive && !rep.CrisisActive {
			recs := m.Crises()
			if err := m.ResolveCrisis(recs[len(recs)-1].ID, label); err != nil {
				t.Fatal(err)
			}
		}
		lastActive = rep.CrisisActive
	}
	if !lastActive {
		t.Fatal("no crisis open at the snapshot; the script no longer reaches it")
	}
	var buf bytes.Buffer
	if err := m.WriteCheckpoint(&buf, CheckpointMeta{SourceEpoch: epochs, Extra: []byte("digest")}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("checkpoint of %d bytes has SHA-256 %s, want %s", buf.Len(), got, want)
	}
}

// TestStoredRowsOutliveTrackGrowth: a stored crisis keeps its summary
// window's rows as views of the monitor's quantile track, so they must keep
// their bits while the track grows past them — 300 more epochs, across a
// block boundary — and a monitor restored from a checkpoint holds the same
// bits in its store's decoded rows.
func TestStoredRowsOutliveTrackGrowth(t *testing.T) {
	tb := newTestbed(t)
	for i := 0; i < 200; i++ {
		tb.step()
	}
	tb.effects = map[int]float64{tbLatency: 5, tbQueueA: 8}
	for i := 0; i < 8; i++ {
		tb.step()
	}
	tb.effects = nil
	for i := 0; i < 40 && tb.m.store.Len() == 0; i++ {
		tb.step()
	}
	if tb.m.store.Len() == 0 {
		t.Fatal("script stored no crisis")
	}
	c, err := tb.m.store.Crisis(0)
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for _, r := range c.Rows {
		for _, v := range r {
			want = append(want, math.Float64bits(v))
		}
	}
	same := func(what string, c *core.StoredCrisis) {
		t.Helper()
		k := 0
		for _, r := range c.Rows {
			for _, v := range r {
				if k >= len(want) || math.Float64bits(v) != want[k] {
					t.Fatalf("%s: stored value %d is %v, was %v when stored", what, k, v, math.Float64frombits(want[k]))
				}
				k++
			}
		}
		if k != len(want) {
			t.Fatalf("%s: %d stored values, %d when stored", what, k, len(want))
		}
	}
	for i := 0; i < 300; i++ {
		tb.step()
	}
	same("after 300 more epochs", c)

	var buf bytes.Buffer
	if err := tb.m.WriteCheckpoint(&buf, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	restored, err := New(tb.m.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.ReadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	rc, err := restored.store.Crisis(0)
	if err != nil {
		t.Fatal(err)
	}
	same("restored", rc)
}
