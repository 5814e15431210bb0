package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

func TestStoreGobRoundTrip(t *testing.T) {
	th := fixedThresholds(2, 10, 100)
	s := NewStore(true)
	if err := s.Add("c1", "B", 100, [][]float64{
		{200, 50, 50, 50, 50, 50},
		{200, 50, 50, 50, 50, 50},
	}, th); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("c2", "", 240, [][]float64{{5, 50, 50, 50, 50, 50}}, th); err != nil {
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

	if got.Len() != 2 || !got.UpdateFingerprints {
		t.Fatalf("decoded store: len=%d update=%v", got.Len(), got.UpdateFingerprints)
	}
	for i := 0; i < s.Len(); i++ {
		a, _ := s.Crisis(i)
		b, _ := got.Crisis(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("crisis %d differs after round trip:\n%+v\n%+v", i, a, b)
		}
	}

	// Fingerprints (update mode, and the labels feeding identification) must
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
	if err := got.Add("c3", "", 300, [][]float64{{1, 2, 3, 4, 5, 6}}, th); err != nil {
		t.Fatal(err)
	}
}

func TestStoreGobFrozenModeSurvives(t *testing.T) {
	thOld := fixedThresholds(1, 10, 100)
	s := NewStore(false)
	if err := s.Add("c1", "", 5, [][]float64{{150, 150, 150}}, thOld); err != nil {
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
	// Frozen mode reads the storage-time state: still hot under new
	// thresholds that would call 150 normal.
	thNew := fixedThresholds(1, 10, 1000)
	f, _ := NewFingerprinter(thNew, []int{0})
	fp, err := got.Fingerprint(0, f)
	if err != nil {
		t.Fatal(err)
	}
	if fp[0] != 1 {
		t.Fatalf("frozen fp after round trip = %v, want storage-time hot (+1)", fp)
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
		// Frozen-mode Fingerprint indexes the frozen state by the row
		// width; a short one would panic identification.
		"short frozen": {Width: 6, Crises: []gobStoredCrisis{{ID: "c", Rows: [][]float64{{1, 2, 3, 4, 5, 6}}, Frozen: []float64{1}}}},
		"no frozen":    {Width: 6, Crises: []gobStoredCrisis{{ID: "c", Rows: [][]float64{{1, 2, 3, 4, 5, 6}}}}},
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
