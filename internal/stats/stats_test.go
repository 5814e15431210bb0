package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMeanEmpty(t *testing.T) {
	if _, err := MeanVector(nil); err != ErrEmpty {
		t.Fatalf("MeanVector(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMean(t *testing.T) {
	m, err := MeanVector([][]float64{{2}, {4}, {6}})
	if err != nil || m[0] != 4 {
		t.Fatalf("MeanVector = %v, %v; want [4], nil", m, err)
	}
}

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		got, err := PercentileSorted(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("PercentileSorted(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	got, err := PercentileSorted(xs, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 2.5, 1e-12) {
		t.Fatalf("PercentileSorted(25) = %v, want 2.5", got)
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := PercentileSorted(nil, 50); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	if _, err := PercentileSorted([]float64{1}, -1); err == nil {
		t.Fatal("want range error for p=-1")
	}
	if _, err := PercentileSorted([]float64{1}, 101); err == nil {
		t.Fatal("want range error for p=101")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{1, 2, 3}
	if _, err := PercentileSorted(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 1 || xs[1] != 2 || xs[2] != 3 {
		t.Fatalf("PercentileSorted mutated input: %v", xs)
	}
}

func TestMedianOddEven(t *testing.T) {
	m, err := PercentileSorted([]float64{1, 3, 5}, 50)
	if err != nil || m != 3 {
		t.Fatalf("median odd = %v, %v", m, err)
	}
	m, err = PercentileSorted([]float64{1, 2, 3, 4}, 50)
	if err != nil || m != 2.5 {
		t.Fatalf("median even = %v, %v", m, err)
	}
}

// TestQuantiles reads the tracked quantiles (25/50/95) off one sorted slice.
func TestQuantiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	var qs [3]float64
	for i, p := range []float64{25, 50, 95} {
		v, err := PercentileSorted(xs, p)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = v
	}
	if qs[0] != 2 || qs[1] != 3 || !almostEqual(qs[2], 4.8, 1e-12) {
		t.Fatalf("quantiles = %v", qs)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7.5 {
			v, err := PercentileSorted(xs, p)
			if err != nil {
				return false
			}
			if v < prev {
				return false
			}
			prev = v
		}
		lo, _ := PercentileSorted(xs, 0)
		hi, _ := PercentileSorted(xs, 100)
		return lo == xs[0] && hi == xs[len(xs)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a mean lies between the smallest and largest value averaged.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		vs := make([][]float64, len(xs))
		for i := range xs {
			vs[i] = xs[i : i+1]
		}
		m, err := MeanVector(vs)
		if err != nil {
			return false
		}
		sort.Float64s(xs)
		return m[0] >= xs[0]-1e-9 && m[0] <= xs[len(xs)-1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sanitize maps arbitrary quick-generated floats into a finite, bounded set
// so properties are not vacuously broken by NaN/Inf inputs.
func sanitize(raw []float64) []float64 {
	out := make([]float64, 0, len(raw))
	for _, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		out = append(out, min(max(x, -1e9), 1e9))
	}
	return out
}

// Cross-check interpolated percentile against a brute-force empirical CDF on
// random data: PercentileSorted(sorted, p) must lie between the floor/ceil
// order statistics.
func TestPercentileSortedWithinOrderStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		sort.Float64s(xs)
		for p := 0.0; p <= 100; p += 12.5 {
			v, err := PercentileSorted(xs, p)
			if err != nil {
				t.Fatal(err)
			}
			r := p / 100 * float64(n-1)
			lo := xs[int(math.Floor(r))]
			hi := xs[int(math.Ceil(r))]
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("p=%v: %v not in [%v,%v]", p, v, lo, hi)
			}
		}
	}
}
