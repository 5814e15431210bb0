package metrics

import "fmt"

// Matrix is a dense row-major sample matrix: one row per machine, one column
// per metric, backed by a single contiguous []float64. The epoch pipeline
// moves per-machine rows around constantly — generating them in dcsim,
// copying them through the fault injector, retaining them in the monitor's
// pre-crisis ring — and a contiguous block with row views keeps that traffic
// to one allocation (and one cache-friendly stride) per epoch instead of one
// allocation per machine.
type Matrix struct {
	cols  int
	data  []float64
	views [][]float64
}

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols <= 0 {
		panic(fmt.Sprintf("metrics: invalid matrix shape %dx%d", rows, cols))
	}
	m := &Matrix{cols: cols, data: make([]float64, rows*cols), views: make([][]float64, rows)}
	m.ResetViews()
	return m
}

// Row returns row i as a slice view into the backing storage.
func (m *Matrix) Row(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// RowViews returns the per-row view slice, shaped like the [][]float64 the
// rest of the pipeline speaks. The slice is owned by the matrix: callers may
// nil individual entries to mark missing rows (see MarkMissing) and must call
// ResetViews before reusing the matrix for the next epoch.
func (m *Matrix) RowViews() [][]float64 { return m.views }

// MarkMissing nils row i's view — the pipeline's convention for a machine
// that reported nothing this epoch. The backing storage is untouched.
func (m *Matrix) MarkMissing(i int) { m.views[i] = nil }

// ResetViews re-points every row view at its backing storage, undoing any
// MarkMissing calls from the previous epoch.
func (m *Matrix) ResetViews() {
	for i := range m.views {
		m.views[i] = m.Row(i)
	}
}

// CopyRow copies src into row i. src must not be longer than a row.
func (m *Matrix) CopyRow(i int, src []float64) {
	copy(m.Row(i), src)
}
