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

// genMargins draws n margins from the regimes the certificate must hold in:
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

// TestOracleExactPathBitIdentical runs both oracle property tests with every
// backtracking test forced down the exact path, so the path rejections and
// near-ties take is held to the reference on every test, and checks that
// PathStats counts the exact tests and certifies none.
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
	if st.ExactChecks < st.Iters || st.Certified != 0 {
		t.Fatalf("forced exact path: %d exact checks and %d certified over %d iterations", st.ExactChecks, st.Certified, st.Iters)
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

// holdCert installs a checkCert hook that requires the reference to accept
// every backtracking test certify accepted, until release or the end of t;
// release reports how many certified tests the hook decided. Lanes call the
// hook concurrently, so it counts under a mutex. Under forceExact nothing is
// certified, so it installs nothing and release reports -1.
func holdCert(t testing.TB) (release func() int) {
	t.Helper()
	if forceExact {
		return func() int { return -1 }
	}
	var mu sync.Mutex
	checked, bad := 0, 0
	checkCert = func(trial, bound float64) {
		mu.Lock()
		defer mu.Unlock()
		checked++
		if !(trial <= bound) {
			if bad++; bad <= 3 {
				t.Errorf("certified a test the reference rejects: trial loss %v above %v", trial, bound)
			}
		}
	}
	release = func() int {
		checkCert = nil
		mu.Lock()
		defer mu.Unlock()
		return checked
	}
	t.Cleanup(func() { release() })
	return release
}

// TestCertBoundEdge decides backtracking tests both ways — certify on the
// lookahead state gradient leaves, and the reference's test on both exact
// losses — at the least q the reference accepts and 1, 2 and 5 ulps below
// it, and at q a few ulps around the curvature term ‖Δm‖²/8n. The trials sit
// where each term of the bound is tight: margins near 0 (curvature 1/4) over
// columns with non-zero means (the bias cross term), margins that are sums of
// ±10⁶ terms cancelling to O(1) (the margins' rounding), |zm| up to 745,
// steps from 10⁻¹³ to 10³, and n up to 50 000. None may be certified while
// the reference rejects it.
func TestCertBoundEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	trials, below, certified := 0, 0, 0
	// check decides the tests from (wLook, bLook) to each trial point, the
	// trial's bias last.
	check := func(what string, f *solver, wLook []float64, bLook float64, points [][]float64) {
		gradB := f.gradient(wLook, bLook, 0)
		look := f.lookLoss(f.exactSum(wLook, bLook))
		mLook := append([]float64(nil), f.m...)
		for pi, pt := range points {
			wNew, bNew := pt[:len(wLook)], pt[len(wLook)]
			lin := 0.0
			for j := range wNew {
				lin += f.gradW[j] * (wNew[j] - wLook[j])
			}
			lin += gradB * (bNew - bLook)
			trial := f.trialLoss(f.exactSum(wNew, bNew))
			curv := 0.0
			for i, m := range f.m {
				curv += (m - mLook[i]) * (m - mLook[i])
			}
			curv /= 8 * float64(len(f.m))
			accepts := func(q float64) bool { return trial <= sufficient(look, lin, q) }
			// The reference's test is monotone in q: bisect for the least
			// q >= 0 it accepts.
			lo, hi := uint64(0), math.Float64bits(math.MaxFloat64)
			for lo < hi {
				if mid := lo + (hi-lo)/2; accepts(math.Float64frombits(mid)) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			qs := []float64{math.Float64frombits(lo), math.Float64frombits(lo + 1), math.Float64frombits(lo) * (1 + 1e-6)}
			for _, ulps := range []uint64{1, 2, 5} {
				if lo >= ulps {
					qs = append(qs, math.Float64frombits(lo-ulps))
					below++
				}
			}
			for _, k := range []float64{-2, -1, 0, 1, 2, 5} {
				qs = append(qs, curv*(1+k*0x1p-52))
			}
			for _, q := range qs {
				if !f.certify(wLook, bLook, wNew, bNew, gradB, lin, q) {
					continue
				}
				if !accepts(q) {
					t.Fatalf("%s, trial %d: certified q = %v (curvature term %v), the reference accepts from %v: trial loss %v, lookahead %v, lin %v",
						what, pi, q, curv, math.Float64frombits(lo), trial, look, lin)
				}
				certified++
			}
			trials++
		}
	}

	// Margins near 0 over columns of mean 3, the step moving the bias and
	// every weight the same way, so the cross term 2Δb·sᵀΔw is large.
	for _, n := range []int{3, 100, 1700, 50000} {
		const d = 4
		rows, pos := make([][]float64, n), make([]bool, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = 3 + rng.NormFloat64()
			}
			pos[i] = rng.Intn(2) == 0
		}
		var s Samples
		if err := s.Append(rows, pos); err != nil {
			t.Fatal(err)
		}
		wLook := []float64{1e-3, -2e-3, 5e-4, 1e-3}
		bLook := -3 * (wLook[0] + wLook[1] + wLook[2] + wLook[3])
		var points [][]float64
		for _, step := range []float64{1e-13, 1e-8, 1e-4, 1e-2, 1, 1e3} {
			for k := 0; k < 3; k++ {
				pt := make([]float64, d+1)
				for j := range wLook {
					pt[j] = wLook[j] + step*math.Abs(rng.NormFloat64())
				}
				pt[d] = bLook + step*(1+rng.Float64())
				if k == 2 { // and one step in random directions
					for j := range pt {
						pt[j] += step * rng.NormFloat64()
					}
				}
				points = append(points, pt)
			}
		}
		check(fmt.Sprintf("near-zero margins, n=%d", n), newSolver(&s, false), wLook, bLook, points)
	}

	// Margins that are pairs of ±10⁶·x terms cancelling to O(1), moved by a
	// relative 10⁻¹⁴: the loss change is the margins' rounding, not Δm.
	{
		const n, pairs, big = 200, 5, 1e6
		rows, pos := make([][]float64, n), make([]bool, n)
		for i := range rows {
			rows[i] = make([]float64, 2*pairs)
			for k := 0; k < pairs; k++ {
				x := rng.NormFloat64()
				rows[i][2*k], rows[i][2*k+1] = x, x+1e-6*rng.NormFloat64()
			}
			pos[i] = rng.Intn(2) == 0
		}
		var s Samples
		if err := s.Append(rows, pos); err != nil {
			t.Fatal(err)
		}
		wLook := make([]float64, 2*pairs)
		for k := 0; k < pairs; k++ {
			wLook[2*k], wLook[2*k+1] = big, -big
		}
		var points [][]float64
		for k := 0; k < 60; k++ {
			pt := make([]float64, 2*pairs+1)
			for j, w := range wLook {
				pt[j] = w * (1 + 1e-14*rng.NormFloat64())
			}
			points = append(points, pt)
		}
		check("cancelling margins", newSolver(&s, false), wLook, 0, points)
	}

	// One column holding the margins (w = 1): |zm| up to 745, zeros, tiny.
	for ci, n := range []int{1, 7, 130, 2000, 50000} {
		pos := make([]bool, n)
		for i := range pos {
			pos[i] = rng.Intn(2) == 0
		}
		f := marginSolver(t, genMargins(rng, n), pos)
		var points [][]float64
		for _, step := range []float64{1e-13, 1e-6, 1e-2, 10} {
			points = append(points, []float64{1 + step, 0}, []float64{1 - step, step}, []float64{1, -step})
		}
		check(fmt.Sprintf("generated margins %d, n=%d", ci, n), f, []float64{1}, 0, points)
	}
	if certified == 0 || below == 0 {
		t.Fatalf("%d tests certified, %d q below the reference's boundary; want both", certified, below)
	}
	t.Logf("%d trials, %d certified decisions, %d q below the reference's boundary", trials, certified, below)
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
