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
	"dcfp/internal/metrics"
	"dcfp/internal/online"
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
	open, restored := a.st.Image().Samples, b.st.Image().Samples
	if n := len(open.Viol); n == 0 || len(restored.Viol) != n {
		t.Fatalf("open crisis holds %d samples, restored %d", n, len(restored.Viol))
	}
	if !reflect.DeepEqual(open.X, restored.X) || !reflect.DeepEqual(open.Viol, restored.Viol) {
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
	restore := func(edit func(*online.State, int)) (*Monitor, error) {
		var f checkpointFile
		if err := gob.NewDecoder(bytes.NewReader(good[hdr:])).Decode(&f); err != nil {
			t.Fatal(err)
		}
		edit(f.State, (f.State.RingPos+len(f.State.Ring)-1)%len(f.State.Ring))
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
	twoPast := func(p *online.State) {
		p.Crises = []online.Crisis{{State: online.CrisisState{Start: 4, Closed: 6}}, {State: online.CrisisState{Start: 12, Closed: -1}}}
		p.Open = false
	}
	for name, consistent := range map[string]func(*online.State, int){
		"two finalized crises": func(p *online.State, _ int) { twoPast(p) },
		"newest crisis open": func(p *online.State, slot int) {
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
	for name, corrupt := range map[string]func(*online.State, int){
		"ring slot one value short": func(p *online.State, slot int) {
			p.Ring[slot].X = p.Ring[slot].X[:len(p.Ring[slot].X)-1]
		},
		"misaligned ring slot": func(p *online.State, slot int) {
			p.Ring[slot].Viol = p.Ring[slot].Viol[:len(p.Ring[slot].Viol)-1]
		},
		"ring shorter than RawPad": func(p *online.State, _ int) { p.Ring = p.Ring[1:] },
		"open crisis samples one value long": func(p *online.State, slot int) {
			twoPast(p)
			p.Open, p.Samples = true, p.Ring[slot]
			p.Samples.X = append(p.Samples.X[:len(p.Samples.X):len(p.Samples.X)], 0)
		},
		// Only the open crisis keeps samples, and it is a crisis record.
		"samples without an open crisis": func(p *online.State, slot int) { twoPast(p); p.Samples = p.Ring[slot] },
		"open without a crisis":          func(p *online.State, _ int) { p.Crises, p.Open = nil, true },
		// A ranking outside the catalog would fail every later relevant
		// set, and with it all advice.
		"ranked metrics outside the catalog": func(p *online.State, _ int) {
			twoPast(p)
			p.Crises[0].State.Top = []int{-1, m.cfg.Catalog.Len() + 5}
		},
		"ranked metric past the catalog": func(p *online.State, _ int) {
			twoPast(p)
			p.Crises[0].State.Top = []int{m.cfg.Catalog.Len()}
		},
		// A stored crisis's window ends where it closed: after its start,
		// before the snapshot, and never for the open crisis.
		"open crisis stored": func(p *online.State, _ int) {
			twoPast(p)
			p.Open, p.Crises[1].State.Closed = true, 14
		},
		"closed before its start": func(p *online.State, _ int) { twoPast(p); p.Crises[0].State.Closed = 3 },
		"closed at the snapshot":  func(p *online.State, _ int) { twoPast(p); p.Crises[0].State.Closed = 20 },
		"closed below unset (-1)": func(p *online.State, _ int) { twoPast(p); p.Crises[1].State.Closed = -2 },
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
		want   = "317bbd0d022dd102ea4cbffe051659dec44e6693804577b6e6fd88352151ec3f"
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
