package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestL2Distance(t *testing.T) {
	d, err := L2Distance([]float64{0, 0}, []float64{3, 4})
	if err != nil || d != 5 {
		t.Fatalf("L2Distance = %v, %v; want 5", d, err)
	}
}

func TestL2DistanceMismatch(t *testing.T) {
	if _, err := L2Distance([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("want length-mismatch error")
	}
}

func TestDotAndNorm(t *testing.T) {
	if n := Norm2([]float64{3, 4}); n != 5 {
		t.Fatalf("Norm2 = %v", n)
	}
	if n := Norm2(nil); n != 0 {
		t.Fatalf("Norm2(nil) = %v", n)
	}
}

func TestMeanVector(t *testing.T) {
	m, err := MeanVector([][]float64{{1, -1, 0}, {1, 1, 0}, {1, 0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0, 1}
	for i := range want {
		if !almostEqual(m[i], want[i], 1e-12) {
			t.Fatalf("MeanVector = %v, want %v", m, want)
		}
	}
	if _, err := MeanVector(nil); err != ErrEmpty {
		t.Fatalf("MeanVector(nil) err = %v", err)
	}
	if _, err := MeanVector([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("want ragged-input error")
	}
}

// Property: L2 distance satisfies symmetry, identity and triangle inequality.
func TestL2MetricProperties(t *testing.T) {
	f := func(ra, rb, rc [4]float64) bool {
		a, b, c := ra[:], rb[:], rc[:]
		for _, v := range [][]float64{a, b, c} {
			for i := range v {
				if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
					v[i] = 0
				}
				v[i] = min(max(v[i], -1e6), 1e6)
			}
		}
		dab, _ := L2Distance(a, b)
		dba, _ := L2Distance(b, a)
		daa, _ := L2Distance(a, a)
		dac, _ := L2Distance(a, c)
		dcb, _ := L2Distance(c, b)
		return dab == dba && daa == 0 && dab <= dac+dcb+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
