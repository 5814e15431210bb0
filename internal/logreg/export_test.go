package logreg

// The row-oriented reference path, its bit-for-bit comparison
// (oracle_test.go), the screening and line-search certificate checks and the
// benchmark's sample generator (certify_test.go), for the external tests in
// this directory, which may import the packages that import logreg.
var (
	OracleSelectTopK = oracleSelectTopK
	SameModel        = sameModel
	HoldScreen       = holdScreen
	HoldCert         = holdCert
	LatentSamples    = latentSamples
)

// Rows returns a row-major copy of the set and its labels: the inverse of
// NewSamples, block boundaries aside.
func (s *Samples) Rows() ([][]float64, []int) {
	x := make([][]float64, 0, len(s.y))
	y := make([]int, len(s.y))
	for i, yi := range s.y {
		if yi {
			y[i] = 1
		}
	}
	for _, b := range s.blocks {
		for i := 0; i < b.n; i++ {
			row := make([]float64, s.d)
			for j := range row {
				row[j] = b.x[j*b.n+i]
			}
			x = append(x, row)
		}
	}
	return x, y
}
