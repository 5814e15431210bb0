package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"dcfp/internal/metrics"
)

func TestStoreGobRoundTrip(t *testing.T) {
	th := fixedThresholds(2, 10, 100)
	s := NewStore()
	if err := s.Add("c1", "B", 100, [][]float64{
		{200, 50, 50, 50, 50, 50},
		{200, 50, 50, 50, 50, 50},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("c2", "", 240, [][]float64{{5, 50, 50, 50, 50, 50}}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	var got Store
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&got); err != nil {
		t.Fatal(err)
	}

	if got.Len() != 2 || got.Width() != 6 {
		t.Fatalf("decoded store: len=%d width=%d", got.Len(), got.Width())
	}
	for i := 0; i < s.Len(); i++ {
		a, _ := s.Crisis(i)
		b, _ := got.Crisis(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("crisis %d differs after round trip:\n%+v\n%+v", i, a, b)
		}
	}

	// Fingerprints (and the labels feeding identification) must
	// be identical through the restored store.
	f, err := NewFingerprinter(th, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	f.SetGeneration(3)
	want, err := fingerprints(s, f)
	if err != nil {
		t.Fatal(err)
	}
	have, err := fingerprints(&got, f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(have, want) {
		t.Fatalf("fingerprints differ after round trip:\n%v\n%v", have, want)
	}

	// The cache restarts cold and the restored store stays mutable.
	if h, m := got.CacheStats(); h != 0 || m != 2 {
		t.Fatalf("decoded cache stats hits=%d miss=%d, want fresh cache (0 hits)", h, m)
	}
	if err := got.SetLabel(1, "F"); err != nil {
		t.Fatal(err)
	}
	if err := got.Add("c3", "", 300, [][]float64{{1, 2, 3, 4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreGobRejectsCorrupt(t *testing.T) {
	enc := func(g gobStore) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(g); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string]gobStore{
		"ragged row":   {Width: 6, Crises: []gobStoredCrisis{{ID: "c", Rows: [][]float64{{1, 2}}}}},
		"missing id":   {Width: 2, Crises: []gobStoredCrisis{{Rows: [][]float64{{1, 2}}}}},
		"missing rows": {Width: 2, Crises: []gobStoredCrisis{{ID: "c"}}},
	}
	for name, g := range cases {
		var s Store
		if err := s.GobDecode(enc(g)); err == nil {
			t.Fatalf("%s: decode should fail", name)
		}
	}
	var s Store
	if err := s.GobDecode([]byte("not gob at all")); err == nil {
		t.Fatal("garbage bytes should fail to decode")
	}
}

// TestStoreGobDecodesFrozenModeFields: stores were once encoded with a mode
// flag and, per crisis, the state frozen at storage time. Gob skips fields
// the destination lacks, so such a store decodes into the same crises and
// saves back what a store built from them saves.
func TestStoreGobDecodesFrozenModeFields(t *testing.T) {
	type oldCrisis struct {
		ID            string
		Label         string
		DetectedStart metrics.Epoch
		Rows          [][]float64
		Frozen        []float64
	}
	type oldStore struct {
		UpdateFingerprints bool
		Width              int
		Crises             []oldCrisis
	}
	rows1 := [][]float64{{200, 50, 50, 50, 50, 50}, {200, 50, 50, 50, 50, 50}}
	rows2 := [][]float64{{5, 50, 50, 50, 50, 50}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(oldStore{
		UpdateFingerprints: true,
		Width:              6,
		Crises: []oldCrisis{
			{ID: "c1", Label: "B", DetectedStart: 100, Rows: rows1, Frozen: []float64{1, 0, 0, 0, 0, 0}},
			{ID: "c2", DetectedStart: 240, Rows: rows2, Frozen: []float64{-1, 0, 0, 0, 0, 0}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	var got Store
	if err := got.GobDecode(buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	want := NewStore()
	if err := want.Add("c1", "B", 100, rows1); err != nil {
		t.Fatal(err)
	}
	if err := want.Add("c2", "", 240, rows2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.crises, want.crises) || got.Width() != want.Width() {
		t.Fatalf("decoded width %d, crises\n%+v\nwant width %d, crises\n%+v", got.Width(), got.crises, want.Width(), want.crises)
	}
	a, err := got.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := want.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("a decoded store saves different bytes from a store built from its crises")
	}
}
