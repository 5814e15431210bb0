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
