package monitor

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"dcfp/internal/ident"
	"dcfp/internal/metrics"
	"dcfp/internal/online"
)

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
func asV1(s *online.State) payloadV1 {
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
		Forecast      *online.ForecastState
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
		id := online.CrisisID(i + 1)
		p.Past = append(p.Past, parentCrisis{
			ID: id, Label: pc.Label, Start: pc.Start, FsX: pc.FsX, FsY: pc.FsY,
			Top: pc.Top, Votes: pc.Votes, Expl: pc.Expl,
		})
		if pc.Closed < 0 {
			continue
		}
		sc := parentStoreEntry{ID: id, Label: pc.Label, DetectedStart: pc.Start}
		lo := max(0, pc.Start-metrics.Epoch(online.SummaryRange.Before))
		hi := min(pc.Start+metrics.Epoch(online.SummaryRange.After), pc.Closed)
		for e := lo; e <= hi; e++ {
			row, err := m.st.Track.EpochRow(e)
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
	if p := a.st.Crises[4]; p.State.Closed >= p.State.Start+metrics.Epoch(online.SummaryRange.After) {
		t.Fatalf("crisis %s started at %d and closed at %d: the script no longer closes one early", p.ID(), p.State.Start, p.State.Closed)
	}
	meta := CheckpointMeta{SourceEpoch: int64(a.Epoch()) - 1}
	for name, edit := range map[string]func(*parentPayload){
		"crisis without a record": func(p *parentPayload) {
			p.Store.Crises = append(p.Store.Crises, parentStoreEntry{ID: "crisis-999", Rows: p.Store.Crises[0].Rows})
		},
		"window past the range": func(p *parentPayload) {
			c := &p.Store.Crises[0]
			c.Rows = append(c.Rows, make([][]float64, online.SummaryRange.Len())...)
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
