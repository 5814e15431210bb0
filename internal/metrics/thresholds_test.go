package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dcfp/internal/stats"
)

// sortThresholds is the reference ComputeThresholds is held to: every
// (metric, quantile) column of the window's normal epochs read with At,
// fully sorted, and both percentiles read by stats.PercentileSorted.
func sortThresholds(track *QuantileTrack, isNormal func(Epoch) bool, end Epoch, cfg ThresholdConfig) (cold, hot [][3]float64, err error) {
	start := max(int(end)-cfg.WindowEpochs+1, 0)
	var normals []Epoch
	for e := Epoch(start); e <= end; e++ {
		if isNormal(e) {
			normals = append(normals, e)
		}
	}
	nm := track.NumMetrics()
	cold, hot = make([][3]float64, nm), make([][3]float64, nm)
	col := make([]float64, len(normals))
	for m := 0; m < nm; m++ {
		for qi := 0; qi < NumQuantiles; qi++ {
			for i, e := range normals {
				if col[i], err = track.At(e, m, qi); err != nil {
					return nil, nil, err
				}
			}
			sort.Float64s(col)
			if cold[m][qi], err = stats.PercentileSorted(col, cfg.ColdPercentile); err != nil {
				return nil, nil, err
			}
			if hot[m][qi], err = stats.PercentileSorted(col, cfg.HotPercentile); err != nil {
				return nil, nil, err
			}
		}
	}
	return cold, hot, nil
}

// sameThreshold compares bits, except where the reference is a zero: between
// a −0 and a +0 the sort's tie order is pdqsort's, so only the value is
// specified there.
func sameThreshold(got, want float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// checkThresholdsMatchSort runs ComputeThresholds and the sort reference on
// the same inputs and requires the same thresholds.
func checkThresholdsMatchSort(t *testing.T, name string, track *QuantileTrack, isNormal func(Epoch) bool, end Epoch, cfg ThresholdConfig) {
	t.Helper()
	th, err := ComputeThresholds(track, isNormal, end, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	cold, hot, err := sortThresholds(track, isNormal, end, cfg)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	for m := range cold {
		for qi := 0; qi < NumQuantiles; qi++ {
			if g, w := th.Cold[m][qi], cold[m][qi]; !sameThreshold(g, w) {
				t.Fatalf("%s: Cold[%d][%d] = %v (%#x), sort gives %v (%#x)", name, m, qi, g, math.Float64bits(g), w, math.Float64bits(w))
			}
			if g, w := th.Hot[m][qi], hot[m][qi]; !sameThreshold(g, w) {
				t.Fatalf("%s: Hot[%d][%d] = %v (%#x), sort gives %v (%#x)", name, m, qi, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// thresholdColumns generates one metric per column shape the selection
// treats differently from a sort: spread values, heavy ties, NaNs (which
// take the sort), signed zeros, infinities and 40 decades of both signs.
var thresholdColumns = []func(rng *rand.Rand) float64{
	func(rng *rand.Rand) float64 { return 100 + rng.NormFloat64()*10 },
	func(rng *rand.Rand) float64 { return float64(rng.Intn(5)) * 0.1 },
	func(rng *rand.Rand) float64 {
		if rng.Intn(50) == 0 {
			return math.NaN()
		}
		return rng.NormFloat64()
	},
	func(rng *rand.Rand) float64 { return []float64{math.Copysign(0, -1), 0, 1, -1}[rng.Intn(4)] },
	func(rng *rand.Rand) float64 {
		return []float64{math.Inf(1), math.Inf(-1), rng.NormFloat64(), 7}[rng.Intn(4)]
	},
	func(rng *rand.Rand) float64 {
		v := math.Pow(10, rng.Float64()*40-20)
		if rng.Intn(2) == 0 {
			return -v
		}
		return v
	},
}

// TestThresholdsMatchSort holds the selection-based threshold refresh to a
// full sort of every column, bit for bit, over random, tie-rich, NaN,
// signed-zero and infinite columns, windows of 1, 2 and hundreds of normal
// epochs, and percentile pairs that include 0 and 100.
func TestThresholdsMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	track := buildTrack(t, len(thresholdColumns), 900, func(e, m, qi int) float64 {
		return thresholdColumns[m](rng)
	})
	mostly := func(e Epoch) bool { return e%7 != 3 }
	all := func(Epoch) bool { return true }
	for _, pp := range [][2]float64{{2, 98}, {0, 100}, {0, 50}, {50, 100}, {37.5, 62.5}, {0.1, 99.9}} {
		cfg := ThresholdConfig{ColdPercentile: pp[0], HotPercentile: pp[1], WindowEpochs: 800}
		checkThresholdsMatchSort(t, "window-800", track, mostly, 899, cfg)
		cfg.WindowEpochs = 1000
		checkThresholdsMatchSort(t, "clamped", track, all, 899, cfg)
		for _, n := range []int{1, 2, 3} {
			cfg.WindowEpochs = n
			checkThresholdsMatchSort(t, "tiny", track, all, Epoch(100+n), cfg)
		}
	}
	// A window whose one normal epoch sits among crisis epochs.
	cfg := ThresholdConfig{ColdPercentile: 2, HotPercentile: 98, WindowEpochs: 10}
	checkThresholdsMatchSort(t, "one-normal", track, func(e Epoch) bool { return e == 45 }, 49, cfg)
}

// FuzzComputeThresholdsMatchesSort feeds arbitrary float bits (three
// quantiles of one metric per epoch) through ComputeThresholds and the sort
// reference; the first two bytes pick the percentile pair.
func FuzzComputeThresholdsMatchesSort(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	for _, gen := range thresholdColumns {
		seed := []byte{2, 98}
		for i := 0; i < 3*16; i++ {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(gen(rng)))
		}
		f.Add(seed)
	}
	f.Add(binary.LittleEndian.AppendUint64([]byte{0, 100}, math.Float64bits(1.5)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		lo, hi := float64(data[0]%101), float64(data[1]%101)
		vals := data[2:]
		n := len(vals) / (8 * NumQuantiles)
		if n == 0 || lo >= hi {
			return
		}
		track := buildTrack(t, 1, n, func(e, _, qi int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(vals[8*(e*NumQuantiles+qi):]))
		})
		cfg := ThresholdConfig{ColdPercentile: lo, HotPercentile: hi, WindowEpochs: n}
		checkThresholdsMatchSort(t, "fuzz", track, func(Epoch) bool { return true }, Epoch(n-1), cfg)
	})
}
