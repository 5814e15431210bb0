package logreg

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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
	return newSolver(&s, false)
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
		gLo, gHi, _ := f.gradient(w, 0, 0)
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
		f := newSolver(s, false)
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

// holdScreen installs a checkScreen hook that requires |gw| <= bound <=
// lambda of every column gradient screening skips, until release or the end
// of t; release reports how many skipped columns the hook computed. Lanes
// call the hook concurrently, so it counts under a mutex. Under forceExact
// it installs nothing and release reports -1: forced runs repeat the plain
// runs' iterates, so their screening decisions too, and the plain runs check
// those.
func holdScreen(t testing.TB) (release func() int) {
	t.Helper()
	if forceExact {
		return func() int { return -1 }
	}
	var mu sync.Mutex
	checked, bad := 0, 0
	checkScreen = func(gw, bound, lambda float64) {
		mu.Lock()
		defer mu.Unlock()
		checked++
		if !(math.Abs(gw) <= bound && bound <= lambda) {
			if bad++; bad <= 3 {
				t.Errorf("screened a column with gradient %v (%x), bound %v, lambda %v", gw, math.Float64bits(gw), bound, lambda)
			}
		}
	}
	release = func() int {
		checkScreen = nil
		mu.Lock()
		defer mu.Unlock()
		return checked
	}
	t.Cleanup(func() { release() })
	return release
}

// latentSamples is BenchmarkPerCrisisSelection's generator: rows × width
// metrics mixing six latent load factors, the first shifted on the ~15 % of
// rows labelled 1 — collinear like real datacenter metrics.
func latentSamples(rows, width int) (*Samples, error) {
	const factors = 6
	rng := rand.New(rand.NewSource(15))
	loading := make([][factors]float64, width)
	for j := range loading {
		for f := range loading[j] {
			loading[j][f] = rng.NormFloat64()
		}
	}
	x, y := make([][]float64, rows), make([]int, rows)
	for i := range x {
		var latent [factors]float64
		for f := range latent {
			latent[f] = rng.NormFloat64()
		}
		if rng.Float64() < 0.15 {
			y[i] = 1
			latent[0] += 2.5
		}
		row := make([]float64, width)
		for j := range row {
			row[j] = 50 + rng.NormFloat64()
			for f, l := range loading[j] {
				row[j] += 4 * l * latent[f]
			}
		}
		x[i] = row
	}
	return NewSamples(x, y)
}

// TestScreenFires: on the benchmark's generator screening skips at least
// half of all column gradients of the path, so a refactor cannot turn the
// optimisation off without failing here.
func TestScreenFires(t *testing.T) {
	s, err := latentSamples(1700, 100)
	if err != nil {
		t.Fatal(err)
	}
	_, _, st, err := s.SelectTopK(10)
	if err != nil {
		t.Fatal(err)
	}
	cols := st.Iters * 100
	t.Logf("screened %d of %d column gradients (%.1f %%) over %d iterations", st.Screened, cols, 100*float64(st.Screened)/float64(cols), st.Iters)
	if 2*st.Screened < cols {
		t.Fatalf("screened %d of %d column gradients, want at least half", st.Screened, cols)
	}
}

// TestScreenBoundEdge builds columns whose gradient, as the kernel computes
// it, lies a few ulps above lambda — after heavy cancellation, at tiny and
// huge scales, and after g has moved — and requires that screening never
// skips one, while it does skip them once lambda clears the bound.
func TestScreenBoundEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n, width = 777, 9
	rows := make([][]float64, n)
	pos := make([]bool, n)
	for i := range rows {
		drive := rng.NormFloat64()
		pos[i] = rng.Float64() < 1/(1+math.Exp(-2*drive))
		sign := float64(1 - 2*(i%2))
		rows[i] = []float64{
			drive,
			rng.NormFloat64(),                          // plain noise
			1e8*sign + rng.NormFloat64(),               // cancels to a small sum
			1e-200 * rng.NormFloat64(),                 // tiny
			1e150 * rng.NormFloat64(),                  // huge
			drive + 1e-9*rng.NormFloat64(),             // nearly the driving column
			math.Ldexp(sign, -30) + 1e-3*rng.Float64(), // cancellation at another scale
			float64(i%7) - 3,                           // few distinct values
			rng.ExpFloat64(),                           // one-signed
		}
	}
	var s Samples
	if err := s.Append(rows, pos); err != nil {
		t.Fatal(err)
	}
	release := holdScreen(t)
	// gradAt is the kernel's gradient at driving weight w0 from a solver
	// with no references, which therefore evaluates every column.
	gradAt := func(w0 float64) []float64 {
		f := newSolver(&s, false)
		w := make([]float64, width)
		w[0] = w0
		f.gradient(w, 0.1, math.Inf(1))
		return append([]float64(nil), f.gradW...)
	}
	f := newSolver(&s, false)
	w := make([]float64, width)
	edges, skips := 0, 0
	for step, w0 := range []float64{0.5, 0.5, 0.5 + 1e-12, 0.7, 0.7, 0.3} {
		want := gradAt(w0)
		w[0] = w0
		for j := 1; j < width; j++ {
			if want[j] == 0 {
				t.Fatalf("column %d: zero gradient cannot sit above lambda", j)
			}
			for _, ulps := range []int{1, 2, 5} {
				lambda := math.Abs(want[j])
				for k := 0; k < ulps; k++ {
					lambda = math.Nextafter(lambda, 0)
				}
				before := f.screened
				f.gradient(w, 0.1, lambda)
				if got := f.gradW[j]; math.Float64bits(got) != math.Float64bits(want[j]) {
					t.Fatalf("step %d column %d, lambda %d ulps below |gw| %v: got %v (screened %d)", step, j, ulps, want[j], got, f.screened-before)
				}
				edges++
			}
		}
		// Far above every bound, every zero-weight column is skipped.
		before := f.screened
		f.gradient(w, 0.1, math.MaxFloat64)
		skips += f.screened - before
	}
	if skips == 0 {
		t.Fatal("no column was ever screened; the edge checks prove nothing")
	}
	t.Logf("%d edge evaluations, %d screened above the bounds, %d checked", edges, skips, release())
}
