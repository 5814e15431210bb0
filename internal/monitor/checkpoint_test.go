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

	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/ident"
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
	// checkpointed as one: the conversion must lose nothing either way.
	open := a.active().fs
	if n := open.Len(); n == 0 || b.active().fs.Len() != n {
		t.Fatalf("open crisis holds %d samples, restored %d", n, b.active().fs.Len())
	}
	ax, ay := open.Block()
	bx, by := b.active().fs.Block()
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
	// fresh monitor; restoreV1 does the same with the payload as a version-1
	// file holds it.
	hdr := len(checkpointMagic) + 4
	restore := func(edit func(*checkpointPayload, int)) (*Monitor, error) {
		var f checkpointFile
		if err := gob.NewDecoder(bytes.NewReader(good[hdr:])).Decode(&f); err != nil {
			t.Fatal(err)
		}
		edit(&f.State, (f.State.RingPos+len(f.State.Ring)-1)%len(f.State.Ring))
		data := bytes.NewBuffer(append([]byte(nil), good[:hdr]...))
		if err := gob.NewEncoder(data).Encode(&f); err != nil {
			t.Fatal(err)
		}
		fresh := equivMonitor(t, s, 1, nil)
		_, err := fresh.ReadCheckpoint(data)
		return fresh, err
	}
	restoreV1 := func(edit func(*payloadV1, int)) (*Monitor, error) {
		f := decodeCheckpoint(t, m, CheckpointMeta{})
		v := asV1(f.State)
		edit(&v, (v.RingPos+len(v.RawRing)-1)%len(v.RawRing))
		fresh := equivMonitor(t, s, 1, nil)
		_, err := fresh.ReadCheckpoint(bytes.NewReader(encodeV1(t, struct {
			Meta  CheckpointMeta
			State payloadV1
		}{f.Meta, v})))
		return fresh, err
	}
	// Two finalized crises, kept as endCrisis leaves them: the first stored
	// when it closed, the second not.
	twoPast := func(p *checkpointPayload) {
		p.Crises = []savedCrisis{{State: crisisState{Start: 4, Closed: 6}}, {State: crisisState{Start: 12, Closed: -1}}}
		p.Open = false
	}
	for name, consistent := range map[string]func(*checkpointPayload, int){
		"two finalized crises": func(p *checkpointPayload, _ int) { twoPast(p) },
		"newest crisis open": func(p *checkpointPayload, slot int) {
			twoPast(p)
			p.Open, p.Samples = true, p.Ring[slot]
		},
	} {
		if m, err := restore(consistent); err != nil || m.Epoch() != 20 {
			t.Fatalf("%s: restore err = %v, epoch %d; want a restored monitor", name, err, m.Epoch())
		}
	}
	if m, err := restoreV1(func(*payloadV1, int) {}); err != nil || m.Epoch() != 20 {
		t.Fatalf("version 1: restore err = %v, epoch %d; want a restored monitor", err, m.Epoch())
	}
	// Decoded payloads that gob accepts but the monitor must not: a sample
	// block that is not catalog-wide with one violation flag per machine
	// would poison the open crisis's buffer, or panic the next detection
	// when the slot's machines are labelled.
	for name, corrupt := range map[string]func(*checkpointPayload, int){
		"ring slot one value short": func(p *checkpointPayload, slot int) {
			p.Ring[slot].X = p.Ring[slot].X[:len(p.Ring[slot].X)-1]
		},
		"misaligned ring slot": func(p *checkpointPayload, slot int) {
			p.Ring[slot].Viol = p.Ring[slot].Viol[:len(p.Ring[slot].Viol)-1]
		},
		"ring shorter than RawPad": func(p *checkpointPayload, _ int) { p.Ring = p.Ring[1:] },
		"open crisis samples one value long": func(p *checkpointPayload, slot int) {
			twoPast(p)
			p.Open, p.Samples = true, p.Ring[slot]
			p.Samples.X = append(p.Samples.X[:len(p.Samples.X):len(p.Samples.X)], 0)
		},
		// Only the open crisis keeps samples, and it is a crisis record.
		"samples without an open crisis": func(p *checkpointPayload, slot int) { twoPast(p); p.Samples = p.Ring[slot] },
		"open without a crisis":          func(p *checkpointPayload, _ int) { p.Crises, p.Open = nil, true },
		// A ranking outside the catalog would fail every later relevant
		// set, and with it all advice.
		"ranked metrics outside the catalog": func(p *checkpointPayload, _ int) {
			twoPast(p)
			p.Crises[0].State.Top = []int{-1, m.cfg.Catalog.Len() + 5}
		},
		"ranked metric past the catalog": func(p *checkpointPayload, _ int) {
			twoPast(p)
			p.Crises[0].State.Top = []int{m.cfg.Catalog.Len()}
		},
		// A stored crisis's window ends where it closed: after its start,
		// before the snapshot, and never for the open crisis.
		"open crisis stored": func(p *checkpointPayload, _ int) {
			twoPast(p)
			p.Open, p.Crises[1].State.Closed = true, 14
		},
		"closed before its start": func(p *checkpointPayload, _ int) { twoPast(p); p.Crises[0].State.Closed = 3 },
		"closed at the snapshot":  func(p *checkpointPayload, _ int) { twoPast(p); p.Crises[0].State.Closed = 20 },
		"closed below unset (-1)": func(p *checkpointPayload, _ int) { twoPast(p); p.Crises[1].State.Closed = -2 },
	} {
		if m, err := restore(corrupt); err == nil || m.Epoch() != 0 {
			t.Fatalf("%s: restore err = %v, epoch %d; want an error and an untouched monitor", name, err, m.Epoch())
		}
	}
	// Version-1 payloads the upgrade refuses: row-major ring slots of the
	// wrong shape, and an open index that is not the newest record's, with
	// which endCrisis would store a finalized crisis a second time.
	for name, corrupt := range map[string]func(*payloadV1, int){
		"narrow ring row": func(v *payloadV1, slot int) { v.RawRing[slot][0] = v.RawRing[slot][0][:3] },
		"misaligned ring slot": func(v *payloadV1, slot int) {
			v.ViolRing[slot] = v.ViolRing[slot][:len(v.RawRing[slot])-1]
		},
		"ring epochs missing": func(v *payloadV1, _ int) { v.RingEpoch = v.RingEpoch[1:] },
		"finalized crisis reopened": func(v *payloadV1, _ int) {
			v.Past = []crisisV1{{Start: 4, Closed: 6}, {Start: 12, Closed: -1}}
			v.ActiveIdx = 0
		},
	} {
		if m, err := restoreV1(corrupt); err == nil || m.Epoch() != 0 {
			t.Fatalf("version 1, %s: restore err = %v, epoch %d; want an error and an untouched monitor", name, err, m.Epoch())
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

// TestCheckpointRestoresLegacyLastSeen: version-1 checkpoints written while
// the monitor kept a per-machine last-seen table carry a LastSeen payload
// field. Gob skips it, so they restore into a monitor that saves back
// exactly what it would have written itself.
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
	f := decodeCheckpoint(t, m, CheckpointMeta{SourceEpoch: 29})

	// The payload as an older build encoded it: every version-1 field, plus
	// LastSeen.
	cur := reflect.ValueOf(asV1(f.State))
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
	legacy := encodeV1(t, file.Interface())
	// The field is really on the wire.
	hdr := len(checkpointMagic) + 4
	back := reflect.New(file.Type())
	if err := gob.NewDecoder(bytes.NewReader(legacy[hdr:])).Decode(back.Interface()); err != nil {
		t.Fatal(err)
	}
	if got := back.Elem().Field(1).FieldByName("LastSeen").Len(); got != len(lastSeen) {
		t.Fatalf("legacy payload carries %d LastSeen entries, want %d", got, len(lastSeen))
	}

	restored := equivMonitor(t, s, 1, nil)
	meta, err := restored.ReadCheckpoint(bytes.NewReader(legacy))
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

// decodeCheckpoint is m's checkpoint, decoded.
func decodeCheckpoint(t *testing.T, m *Monitor, meta CheckpointMeta) checkpointFile {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteCheckpoint(&buf, meta); err != nil {
		t.Fatal(err)
	}
	var f checkpointFile
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes()[len(checkpointMagic)+4:])).Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// asV1 is s as a version-1 payload holds it: samples as rows, the open crisis
// as an index.
func asV1(s checkpointPayload) payloadV1 {
	v := payloadV1{
		InCrisis: s.InCrisis, Degraded: s.Degraded, Track: s.Track,
		HasThresh: s.Thresholds != nil, LastThresh: s.LastThresh, ThGen: s.ThGen,
		Expected: s.Expected, LastCoverage: s.LastCoverage,
		RingPos: s.RingPos, ActiveIdx: -1, Calm: s.Calm, Forecast: s.Forecast,
	}
	if s.Thresholds != nil {
		v.Thresholds = *s.Thresholds
	}
	for _, c := range s.Crises {
		p := c.State
		v.Past = append(v.Past, crisisV1{Label: p.Label, Start: p.Start, Closed: p.Closed, Top: p.Top, Votes: p.Votes, Expl: c.Expl})
	}
	if s.Open {
		v.ActiveIdx = len(v.Past) - 1
		p := &v.Past[v.ActiveIdx]
		p.FsX = blockRows(s.Samples.X, len(s.Samples.Viol))
		for _, pos := range s.Samples.Viol {
			y := 0
			if pos {
				y = 1
			}
			p.FsY = append(p.FsY, y)
		}
	}
	for _, b := range s.Ring {
		v.RawRing = append(v.RawRing, blockRows(b.X, len(b.Viol)))
		v.ViolRing = append(v.ViolRing, b.Viol)
		v.RingEpoch = append(v.RingEpoch, b.Epoch)
	}
	return v
}

// encodeV1 is a checkpoint file whose header names version 1, holding file.
func encodeV1(t *testing.T, file any) []byte {
	t.Helper()
	buf := bytes.NewBufferString(checkpointMagic)
	buf.Write([]byte{0, 0, 0, 1})
	if err := gob.NewEncoder(buf).Encode(file); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// blockRows is the n machines of a metric-major sample block as rows.
func blockRows(x []float64, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		for j := 0; j < len(x)/n; j++ {
			rows[i] = append(rows[i], x[j*n+i])
		}
	}
	return rows
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
		want   = "60fc6f835a5ad258cd392d2c4ed9f4c60772d2e0f690045c583b98f505bf4949"
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

// Test-local types in the shape checkpoints had while the monitor kept its
// stored crises in a separate crisis store: the payload's Store field, and
// crisis records without Closed.
type (
	parentStoreEntry struct {
		ID            string
		Label         string
		DetectedStart metrics.Epoch
		Rows          [][]float64
	}
	parentStore struct {
		Width  int
		Crises []parentStoreEntry
	}
	parentCrisis struct {
		ID    string
		Label string
		Start metrics.Epoch
		FsX   [][]float64
		FsY   []int
		Top   []int
		Votes []string
		Expl  []*ident.Explanation
	}
	parentPayload struct {
		Epoch         metrics.Epoch
		InCrisis      []bool
		Degraded      []bool
		Track         *metrics.QuantileTrack
		HasThresh     bool
		Thresholds    metrics.Thresholds
		LastThresh    metrics.Epoch
		ThGen         uint64
		LastSummary   [][3]float64
		Expected      int
		DegradedCount int64
		LastCoverage  float64
		Store         *parentStore
		Past          []parentCrisis
		NextID        int
		RawRing       [][][]float64
		ViolRing      [][]bool
		RingEpoch     []metrics.Epoch
		RingPos       int
		ActiveStart   metrics.Epoch
		ActiveIdx     int
		Calm          int
		Forecast      *forecastState
	}
	parentFile struct {
		Meta  CheckpointMeta
		State parentPayload
	}
)

// GobEncode writes the store as its own gob stream, as the crisis store did.
func (s *parentStore) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Width  int
		Crises []parentStoreEntry
	}{s.Width, s.Crises})
	return buf.Bytes(), err
}

// parentCheckpoint encodes m's state in the version-1 shape of those builds: every stored
// crisis's window rows copied out of the track into the store, in storage
// order, and the values that shape also wrote beside the state they derive
// from: the epoch, the last summary, the degraded count, the crisis counter,
// the active start and each crisis's ID.
func parentCheckpoint(t *testing.T, m *Monitor, meta CheckpointMeta, edit func(*parentPayload)) []byte {
	t.Helper()
	f := decodeCheckpoint(t, m, meta)
	c := asV1(f.State)
	st := m.Stats()
	p := parentPayload{
		Epoch: m.Epoch(), InCrisis: c.InCrisis, Degraded: c.Degraded, Track: c.Track,
		HasThresh: c.HasThresh, Thresholds: c.Thresholds, LastThresh: c.LastThresh, ThGen: c.ThGen,
		LastSummary: m.lastSummary, Expected: c.Expected, DegradedCount: st.DegradedEpochs, LastCoverage: c.LastCoverage,
		Store: &parentStore{}, NextID: len(c.Past),
		RawRing: c.RawRing, ViolRing: c.ViolRing, RingEpoch: c.RingEpoch, RingPos: c.RingPos,
		ActiveStart: st.ActiveCrisisStart, ActiveIdx: c.ActiveIdx, Calm: c.Calm, Forecast: c.Forecast,
	}
	for i, pc := range c.Past {
		id := crisisID(i + 1)
		p.Past = append(p.Past, parentCrisis{
			ID: id, Label: pc.Label, Start: pc.Start, FsX: pc.FsX, FsY: pc.FsY,
			Top: pc.Top, Votes: pc.Votes, Expl: pc.Expl,
		})
		if pc.Closed < 0 {
			continue
		}
		sc := parentStoreEntry{ID: id, Label: pc.Label, DetectedStart: pc.Start}
		lo := max(0, pc.Start-metrics.Epoch(summaryRange.Before))
		hi := min(pc.Start+metrics.Epoch(summaryRange.After), pc.Closed)
		for e := lo; e <= hi; e++ {
			row, err := m.track.EpochRow(e)
			if err != nil {
				t.Fatal(err)
			}
			sc.Rows = append(sc.Rows, append([]float64(nil), row...))
		}
		p.Store.Width = len(sc.Rows[0])
		p.Store.Crises = append(p.Store.Crises, sc)
	}
	if edit != nil {
		edit(&p)
	}
	return encodeV1(t, &parentFile{Meta: f.Meta, State: p})
}

// TestCheckpointRestoresParentStore: a checkpoint written while the monitor
// kept a separate crisis store restores, each stored crisis's window taken
// from the store's row count, and the replay after it equals an
// uninterrupted run's reports, advice against the stored crises included.
// The run is TestAdviceStreamDigest's, snapshot while the crisis after the
// one that closed early is open, so that one's shorter window is restored
// too. A store that names a crisis without a record, or holds a window
// longer than the summary range, is refused.
func TestCheckpointRestoresParentStore(t *testing.T) {
	const replay = 100
	s, cfg := earlyCloseRun(t)
	newMon := func() *Monitor {
		t.Helper()
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := newMon()
	lastActive, label := false, ""
	step := func(ms ...*Monitor) *EpochReport {
		t.Helper()
		rows, act, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		var reps []*EpochReport
		for _, m := range ms {
			rep, err := m.ObserveEpoch(rows)
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		}
		for i := 1; i < len(reps); i++ {
			if !reflect.DeepEqual(reps[0], reps[i]) {
				t.Fatalf("epoch %d after restore: reports diverge:\noriginal: %+v\nrestored: %+v", reps[0].Epoch, reps[0], reps[i])
			}
		}
		if act != nil {
			label = fmt.Sprintf("type-%d", act.Type)
		}
		if lastActive && !reps[0].CrisisActive {
			id := ms[0].Crises()[len(ms[0].Crises())-1].ID
			for _, m := range ms {
				if err := m.ResolveCrisis(id, label); err != nil {
					t.Fatal(err)
				}
			}
		}
		lastActive = reps[0].CrisisActive
		return reps[0]
	}
	for {
		if stored, _ := a.KnownCrises(); stored >= 5 && lastActive {
			break
		}
		step(a)
	}
	if p := a.past[4]; p.Closed >= p.Start+metrics.Epoch(summaryRange.After) {
		t.Fatalf("crisis %s started at %d and closed at %d: the script no longer closes one early", p.id, p.Start, p.Closed)
	}
	meta := CheckpointMeta{SourceEpoch: int64(a.Epoch()) - 1}
	for name, edit := range map[string]func(*parentPayload){
		"crisis without a record": func(p *parentPayload) {
			p.Store.Crises = append(p.Store.Crises, parentStoreEntry{ID: "crisis-999", Rows: p.Store.Crises[0].Rows})
		},
		"window past the range": func(p *parentPayload) {
			c := &p.Store.Crises[0]
			c.Rows = append(c.Rows, make([][]float64, summaryRange.Len())...)
		},
	} {
		if _, err := newMon().ReadCheckpoint(bytes.NewReader(parentCheckpoint(t, a, meta, edit))); err == nil {
			t.Fatalf("%s: restore should fail", name)
		}
	}
	b := newMon()
	if _, err := b.ReadCheckpoint(bytes.NewReader(parentCheckpoint(t, a, meta, nil))); err != nil {
		t.Fatalf("parent-shape checkpoint: %v", err)
	}
	if got, want := b.Crises(), a.Crises(); !reflect.DeepEqual(got, want) {
		t.Fatalf("crisis records diverge:\noriginal: %+v\nrestored: %+v", want, got)
	}
	compared := 0
	for i := 0; i < replay; i++ {
		if rep := step(a, b); rep.Advice != nil {
			compared += rep.Advice.Candidates
		}
	}
	if compared == 0 {
		t.Fatal("no advice after the restore compared a stored crisis")
	}
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Fatalf("stats diverge after replay:\noriginal: %+v\nrestored: %+v", a.Stats(), b.Stats())
	}
}
