package logreg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// marginSolver returns a solver whose margins at w = [1], b = 0 are exactly
// m: one column holding the margins, labels from pos.
func marginSolver(t *testing.T, m []float64, pos []bool) *solver {
	t.Helper()
	rows := make([][]float64, len(m))
	for i, v := range m {
		rows[i] = []float64{v}
	}
	var s Samples
	if err := s.Append(rows, pos); err != nil {
		t.Fatal(err)
	}
	return newSolver(&s)
}

// genMargins draws n margins from the regimes the brackets must hold in:
// the bulk of a real fit (|zm| of a few units), both signs, exact zeros of
// either sign, tiny magnitudes, and |zm| up to 745, where exp(−|zm|) is
// subnormal or underflows to 0.
func genMargins(rng *rand.Rand, n int) []float64 {
	m := make([]float64, n)
	for i := range m {
		var v float64
		switch rng.Intn(8) {
		case 0:
			v = 0
		case 1:
			v = 700 + 46*rng.Float64()
		case 2:
			v = math.Pow(10, -20+22*rng.Float64())
		case 3:
			v = 745 * rng.Float64()
		default:
			v = 4 * rng.NormFloat64()
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		m[i] = v
	}
	return m
}

// TestLossBracketHoldsExactSum: for random margins over n ∈ [1, 5 000], the
// certified bracket of lossSum and of gradient holds the reference's
// row-order Log1p sum, |S_code − Ŝ| ≤ r, and the two brackets agree.
func TestLossBracketHoldsExactSum(t *testing.T) {
	cases := 300
	if testing.Short() {
		cases = 60
	}
	rng := rand.New(rand.NewSource(29))
	w := []float64{1}
	worst := 0.0 // largest |S_code − Ŝ| / r seen
	for ci := 0; ci < cases; ci++ {
		n := 1 + rng.Intn(5000)
		if ci%10 == 0 {
			n = 1 + rng.Intn(130) // chunk boundaries and single rows
		}
		m := genMargins(rng, n)
		pos := make([]bool, n)
		for i := range pos {
			pos[i] = rng.Intn(2) == 0
		}
		f := marginSolver(t, m, pos)
		exact := f.exactSum(w, 0)
		lo, hi := f.lossSum(w, 0)
		gLo, gHi, _ := f.gradient(w, 0)
		what := fmt.Sprintf("case %d (n=%d)", ci, n)
		if math.Float64bits(lo) != math.Float64bits(gLo) || math.Float64bits(hi) != math.Float64bits(gHi) {
			t.Fatalf("%s: lossSum [%v, %v], gradient [%v, %v]", what, lo, hi, gLo, gHi)
		}
		if !(lo <= exact && exact <= hi) {
			t.Fatalf("%s: exact sum %v outside [%v, %v]", what, exact, lo, hi)
		}
		if r := (hi - lo) / 2; r > 0 {
			worst = max(worst, math.Abs(exact-(lo+hi)/2)/r)
		}
	}
	t.Logf("largest |S_code − Ŝ| / r: %.3g", worst)
}

// TestLossBracketUndecided: a sum that is NaN, infinite or near overflow has
// no certified bracket, so every test on it takes the exact path.
func TestLossBracketUndecided(t *testing.T) {
	for _, tc := range []struct {
		name  string
		a, lg float64
	}{
		{"NaN", math.NaN(), 1},
		{"+Inf", math.Inf(1), 0},
		{"near overflow", 0x1p1000, 0},
	} {
		lo, hi := bracket(tc.a, tc.lg, 10)
		if !math.IsNaN(lo) || !math.IsNaN(hi) {
			t.Errorf("%s: bracket [%v, %v], want NaN bounds", tc.name, lo, hi)
		}
	}
	f := marginSolver(t, []float64{1, math.NaN(), -2}, []bool{true, false, true})
	if lo, hi := f.lossSum([]float64{1}, 0); !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatalf("NaN margin: bracket [%v, %v], want NaN bounds", lo, hi)
	}
}

// TestOracleExactPathBitIdentical runs both oracle property tests with every
// backtracking test forced down the exact path, so the fallback — which real
// fits almost never reach — is held to the reference too, and checks that
// PathStats counts the fallbacks.
func TestOracleExactPathBitIdentical(t *testing.T) {
	forceExact = true
	defer func() { forceExact = false }()
	t.Run("Train", TestOracleTrainBitIdentical)
	t.Run("SelectTopK", TestOracleSelectTopKBitIdentical)

	rng := rand.New(rand.NewSource(7))
	x, y := synth(rng, 300, 20, []float64{2, -2}, 0)
	s, err := NewSamples(x, y)
	if err != nil {
		t.Fatal(err)
	}
	_, _, st, err := s.SelectTopK(5)
	if err != nil {
		t.Fatal(err)
	}
	// Every iteration makes at least one backtracking test.
	if st.ExactChecks < st.Iters {
		t.Fatalf("forced exact path: %d exact checks over %d iterations", st.ExactChecks, st.Iters)
	}
}

// TestExactLossMatchesReference: the exact path's two losses are the
// reference's, bit for bit — at the lookahead point its gradient's sum·(1/n),
// at a trial point its smoothLoss's sum/n — including on the points where
// those two scalings of one sum differ.
func TestExactLossMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	differ := 0
	for ci := 0; ci < 40; ci++ {
		c := genOracleCase(rng)
		s, err := NewSamples(c.x, c.y)
		if err != nil {
			t.Fatal(err)
		}
		f := newSolver(s)
		d := len(c.x[0])
		for k := 0; k < 5; k++ {
			w := make([]float64, d)
			for j := range w {
				w[j] = rng.NormFloat64() / float64(d)
			}
			b := rng.NormFloat64()
			look, _ := gradient(c.x, c.y, w, b, make([]float64, d))
			trial := smoothLoss(c.x, c.y, w, b)
			sum := f.exactSum(w, b)
			if got := f.lookLoss(sum); math.Float64bits(got) != math.Float64bits(look) {
				t.Fatalf("case %d: lookahead loss %v, reference %v", ci, got, look)
			}
			if got := f.trialLoss(sum); math.Float64bits(got) != math.Float64bits(trial) {
				t.Fatalf("case %d: trial loss %v, reference %v", ci, got, trial)
			}
			if look != trial {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Fatal("no point where sum·(1/n) and sum/n differ; the test cannot tell them apart")
	}
}

// TestDecideCertifiesOnlyTheTruth: whenever decide is certain, its answer is
// the reference's test on the exact losses inside the brackets, over
// brackets as wide as the gaps they straddle, and NaN decides nothing.
func TestDecideCertifiesOnlyTheTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	certain, uncertain := 0, 0
	for i := 0; i < 200000; i++ {
		look := rng.Float64()
		lin, q := -rng.Float64()*1e-3, rng.Float64()*1e-3
		width := math.Pow(10, -16+4*rng.Float64())
		trial := sufficient(look, lin, q) + (rng.Float64()-0.5)*4*width
		lookLo, lookHi := look-rng.Float64()*width, look+rng.Float64()*width
		newLo, newHi := trial-rng.Float64()*width, trial+rng.Float64()*width
		accept, ok := decide(lookLo, lookHi, newLo, newHi, lin, q)
		if !ok {
			uncertain++
			continue
		}
		certain++
		if want := trial <= sufficient(look, lin, q); accept != want {
			t.Fatalf("look %v in [%v, %v], trial %v in [%v, %v]: decided %v, exact test %v",
				look, lookLo, lookHi, trial, newLo, newHi, accept, want)
		}
	}
	if certain == 0 || uncertain == 0 {
		t.Fatalf("%d certain and %d uncertain decisions; want both", certain, uncertain)
	}
	nan := math.NaN()
	for _, b := range [][4]float64{{nan, nan, 0, 0}, {0, 0, nan, nan}, {nan, 1, 0, 0}, {0, 0, nan, 1}} {
		if _, ok := decide(b[0], b[1], b[2], b[3], 0, 0); ok {
			t.Fatalf("brackets %v decided", b)
		}
	}
}
