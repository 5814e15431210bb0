package dcfp_test

import (
	"fmt"

	"dcfp"
)

// Building a fingerprint by hand: a two-metric track whose first metric
// goes hot during a crisis at epochs 10..14.
func ExampleNewFingerprinter() {
	track, _ := dcfp.NewQuantileTrack(2)
	for e := 0; e < 20; e++ {
		v := 100.0
		if e >= 10 && e < 15 {
			v = 300 // crisis: metric 0 elevated datacenter-wide
		}
		_ = track.AppendEpoch([][3]float64{{v, v, v}, {50, 50, 50}})
	}

	// Thresholds from the crisis-free prefix.
	isNormal := func(e dcfp.Epoch) bool { return e < 10 || e >= 15 }
	th, _ := dcfp.ComputeThresholds(track, isNormal, 19, dcfp.ThresholdConfig{
		ColdPercentile: 2, HotPercentile: 98, WindowEpochs: 20,
	})

	fp, _ := dcfp.NewFingerprinter(th, dcfp.AllMetrics(2))
	crisis, _ := fp.CrisisFingerprint(track, 10, dcfp.DefaultSummaryRange())
	fmt.Printf("fingerprint size: %d\n", fp.Size())
	fmt.Printf("metric 0 cells: %.2f %.2f %.2f\n", crisis[0], crisis[1], crisis[2])
	fmt.Printf("metric 1 cells: %.2f %.2f %.2f\n", crisis[3], crisis[4], crisis[5])
	// Output:
	// fingerprint size: 6
	// metric 0 cells: 0.71 0.71 0.71
	// metric 1 cells: 0.00 0.00 0.00
}

// The §5.3 online identification-threshold rules.
func ExampleOnlineThreshold() {
	// Only same-type pairs seen so far: threshold = max distance ×(1+α).
	pairs := []dcfp.LabeledPair{
		{Distance: 0.8, Same: true},
		{Distance: 1.0, Same: true},
	}
	t, _ := dcfp.OnlineThreshold(pairs, 0.1)
	fmt.Printf("same-only: %.2f\n", t)

	// Both kinds, perfectly separated: threshold interpolates the gap.
	pairs = append(pairs, dcfp.LabeledPair{Distance: 3.0, Same: false})
	t, _ = dcfp.OnlineThreshold(pairs, 0.5)
	fmt.Printf("separated: %.2f\n", t)
	// Output:
	// same-only: 1.10
	// separated: 2.00
}

// Comparing two crises by fingerprint distance.
func ExampleDistance() {
	a := []float64{1, 0, 1, 0}
	b := []float64{1, 0, -1, 0}
	d, _ := dcfp.Distance(a, b)
	fmt.Printf("%.0f\n", d)
	// Output: 2
}
