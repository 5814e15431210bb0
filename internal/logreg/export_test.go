package logreg

// The row-oriented reference path, its bit-for-bit comparison
// (oracle_test.go) and the screening certificate check (certify_test.go),
// for the external tests in this directory, which may import the packages
// that import logreg.
var (
	OracleSelectTopK = oracleSelectTopK
	SameModel        = sameModel
	HoldScreen       = holdScreen
)
