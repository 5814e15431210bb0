package metrics

import (
	"testing"
)

func TestMatrixLayout(t *testing.T) {
	m := NewMatrix(3, 4)
	if len(m.views) != 3 || m.cols != 4 || len(m.data) != 12 {
		t.Fatalf("shape = %dx%d, data %d", len(m.views), m.cols, len(m.data))
	}
	// Row views alias the flat storage.
	for i := 0; i < 3; i++ {
		row := m.Row(i)
		if len(row) != 4 {
			t.Fatalf("row %d len %d", i, len(row))
		}
		for j := range row {
			row[j] = float64(i*4 + j)
		}
	}
	for k, v := range m.data {
		if v != float64(k) {
			t.Fatalf("data[%d] = %v, want %v (not row-major contiguous)", k, v, k)
		}
	}
	// Row views have capacity clipped at the row boundary — an append must
	// not scribble on the next row.
	r0 := m.Row(0)
	_ = append(r0, -1)
	if m.Row(1)[0] != 4 {
		t.Fatal("append to a row view overwrote the next row")
	}
}

func TestMatrixViews(t *testing.T) {
	m := NewMatrix(4, 2)
	views := m.RowViews()
	if len(views) != 4 {
		t.Fatalf("got %d views", len(views))
	}
	m.MarkMissing(2)
	if views[2] != nil {
		t.Fatal("MarkMissing did not nil the view")
	}
	if views[1] == nil || &views[1][0] != &m.data[2] {
		t.Fatal("view 1 does not alias backing storage")
	}
	m.ResetViews()
	if views[2] == nil || &views[2][0] != &m.data[4] {
		t.Fatal("ResetViews did not restore the view")
	}
}

func TestMatrixCopyRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.CopyRow(1, []float64{7, 8, 9})
	if d := m.data; d[3] != 7 || d[4] != 8 || d[5] != 9 {
		t.Fatalf("data = %v", d)
	}
}

func TestTrackGrowSetEpoch(t *testing.T) {
	tr, err := NewQuantileTrack(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Grow(3); err != nil {
		t.Fatal(err)
	}
	if tr.NumEpochs() != 3 {
		t.Fatalf("epochs = %d", tr.NumEpochs())
	}
	sum := [][3]float64{{1, 2, 3}, {4, 5, 6}}
	if err := tr.SetEpoch(1, sum); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 2; m++ {
		for q := 0; q < NumQuantiles; q++ {
			v, err := tr.At(1, m, q)
			if err != nil {
				t.Fatal(err)
			}
			if v != sum[m][q] {
				t.Fatalf("At(1,%d,%d) = %v, want %v", m, q, v, sum[m][q])
			}
		}
	}
	// Bounds and width checks.
	if err := tr.SetEpoch(3, sum); err == nil {
		t.Fatal("out-of-range SetEpoch accepted")
	}
	if err := tr.SetEpoch(0, sum[:1]); err == nil {
		t.Fatal("short summary accepted")
	}
	if err := tr.Grow(-1); err == nil {
		t.Fatal("negative Grow accepted")
	}
	// Grow after AppendEpoch composes.
	if err := tr.AppendEpoch(sum); err != nil {
		t.Fatal(err)
	}
	if tr.NumEpochs() != 4 {
		t.Fatalf("epochs after append = %d", tr.NumEpochs())
	}
}
