package core

import (
	"math"
	"testing"

	"dcfp/internal/metrics"
)

func TestStoreAddAndFingerprint(t *testing.T) {
	th := fixedThresholds(2, 10, 100)
	s := NewStore()
	rows := [][]float64{
		{200, 50, 50, 50, 50, 50}, // m0q0 hot
		{200, 50, 50, 50, 50, 50},
	}
	if err := s.Add("c1", "B", 100, rows); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	f, _ := NewFingerprinter(th, []int{0, 1})
	fp, err := s.Fingerprint(0, f)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0, 0, 0, 0, 0}
	for i := range want {
		if fp[i] != want[i] {
			t.Fatalf("fp = %v", fp)
		}
	}
	fps, err := fingerprints(s, f)
	if err != nil || len(fps) != 1 {
		t.Fatalf("Fingerprints = %v, %v", fps, err)
	}
}

func TestStoreUpdateModeRecomputes(t *testing.T) {
	s := NewStore()
	rows := [][]float64{{150, 150, 150}}
	if err := s.Add("c1", "", 5, rows); err != nil {
		t.Fatal(err)
	}
	// 150 is hot under the thresholds in force at storage time; new
	// thresholds make it normal.
	for _, c := range []struct {
		hi   float64
		want float64
	}{{100, 1}, {1000, 0}} {
		f, _ := NewFingerprinter(fixedThresholds(1, 10, c.hi), []int{0})
		fp, err := s.Fingerprint(0, f)
		if err != nil {
			t.Fatal(err)
		}
		if fp[0] != c.want {
			t.Fatalf("hot threshold %v: fp = %v, want recomputed %v", c.hi, fp, c.want)
		}
	}
}

func TestStoreSetLabel(t *testing.T) {
	s := NewStore()
	if err := s.Add("c1", "", 5, [][]float64{{50, 50, 50}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetLabel(0, "C"); err != nil {
		t.Fatal(err)
	}
	c, err := s.Crisis(0)
	if err != nil || c.Label != "C" {
		t.Fatalf("Crisis = %+v, %v", c, err)
	}
	if err := s.SetLabel(5, "X"); err == nil {
		t.Fatal("want index error")
	}
	if _, err := s.Crisis(-1); err == nil {
		t.Fatal("want index error")
	}
}

func TestStoreAddValidation(t *testing.T) {
	s := NewStore()
	for name, rows := range map[string][][]float64{
		"no rows":           nil,
		"zero width":        {{}},
		"not whole metrics": {{1, 2, 3, 4}},
		"ragged rows":       {{1, 2, 3, 4, 5, 6}, {1, 2, 3}},
	} {
		if err := s.Add("c", "", 0, rows); err == nil {
			t.Fatalf("%s: want an error", name)
		}
	}
	if s.Len() != 0 || s.Width() != 0 {
		t.Fatalf("refused adds left %d crises of width %d", s.Len(), s.Width())
	}
	if err := s.Add("c", "", 0, [][]float64{{1, 2, 3, 4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	// Different width from established store width.
	if err := s.Add("c3", "", 0, [][]float64{{1, 2, 3, 4, 5, 6, 7, 8, 9}}); err == nil {
		t.Fatal("want store-width error")
	}
}

func TestStoreFingerprintWidthMismatch(t *testing.T) {
	s := NewStore()
	if err := s.Add("c", "", 0, [][]float64{{1, 2, 3, 4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	thWide := fixedThresholds(3, 10, 100)
	f, _ := NewFingerprinter(thWide, []int{0})
	if _, err := s.Fingerprint(0, f); err == nil {
		t.Fatal("want width-mismatch error")
	}
	if _, err := s.Fingerprint(9, f); err == nil {
		t.Fatal("want index error")
	}
}

// TestStoreKeepsRows: Add keeps the rows it is given, which the caller gives
// up, instead of copying them.
func TestStoreKeepsRows(t *testing.T) {
	s := NewStore()
	rows := [][]float64{{50, 50, 50}}
	if err := s.Add("c", "", 0, rows); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Crisis(0)
	if &c.Rows[0][0] != &rows[0][0] {
		t.Fatal("store copied the rows it was given")
	}
}

func TestBytesPerCrisis(t *testing.T) {
	// Paper §6.3 counts 100 metrics × 3 quantiles × 7 epochs × 4 bytes =
	// 8400; with float64 we pay exactly double.
	got := BytesPerCrisis(100, DefaultSummaryRange())
	if got != 16800 {
		t.Fatalf("BytesPerCrisis = %d, want 16800", got)
	}
}

// TestCaptureRows: the captured rows are the track's own rows, capped so an
// append cannot write past them, and stay put, bit for bit, while the track
// grows 300 epochs past them into new blocks — as a stored crisis's rows
// must.
func TestCaptureRows(t *testing.T) {
	tr := trackOf(t, 1, 20, func(e, m, qi int) float64 { return float64(e) + 0.1*float64(qi) })
	rows, err := CaptureRows(tr, 10, DefaultSummaryRange())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("captured %d rows", len(rows))
	}
	if rows[0][0] != 8 || rows[6][0] != 14 {
		t.Fatalf("rows = %v", rows)
	}
	for i, r := range rows {
		own, _ := tr.EpochRow(metrics.Epoch(8 + i))
		if &r[0] != &own[0] || cap(r) != len(r) {
			t.Fatalf("row %d: not a capped view of the track's epoch %d", i, 8+i)
		}
	}
	want := make([][]uint64, len(rows))
	for i, r := range rows {
		for _, v := range r {
			want[i] = append(want[i], math.Float64bits(v))
		}
	}
	sum := [][3]float64{{-1, -2, -3}}
	for e := 0; e < 300; e++ {
		if err := tr.AppendEpoch(sum); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range rows {
		for j, v := range r {
			if math.Float64bits(v) != want[i][j] {
				t.Fatalf("row %d value %d changed to %v after the track grew", i, j, v)
			}
		}
	}
	if _, err := CaptureRows(tr, 500, DefaultSummaryRange()); err == nil {
		t.Fatal("want out-of-range error")
	}
	if _, err := CaptureRows(nil, 0, DefaultSummaryRange()); err == nil {
		t.Fatal("want nil-track error")
	}
}

// fingerprints returns the fingerprints of all stored crises under f, in
// storage order.
func fingerprints(s *Store, f *Fingerprinter) ([][]float64, error) {
	out := make([][]float64, s.Len())
	for i := range out {
		fp, err := s.Fingerprint(i, f)
		if err != nil {
			return nil, err
		}
		out[i] = fp
	}
	return out, nil
}
