package logreg

// The row-oriented reference solver, kept verbatim from the commit before the
// column-major kernel replaced it: fista, gradient, smoothLoss,
// sufficientDecrease and standardizeCopy are untouched, and oracleTrain,
// oracleLambdaMax and oracleSelectTopK are the old entry points renamed.
// Deliberately naive — every row is its own slice, every pass sweeps all n·d
// cells — and the definition of "the same numbers": the property tests below
// require the production kernel to reproduce its iterates bit for bit.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleTrain is the parent commit's Train: it fits an L1-regularized logistic regression of y (0/1 labels) on X
// (rows = samples, columns = features).
func oracleTrain(x [][]float64, y []int, opts Options) (*Model, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, errNoData
	}
	d := len(x[0])
	pos, neg := 0, 0
	for i, row := range x {
		if len(row) != d {
			return nil, errDims
		}
		switch y[i] {
		case 0:
			neg++
		case 1:
			pos++
		default:
			return nil, errLabelRange
		}
	}
	if pos == 0 || neg == 0 {
		return nil, errOneClass
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 500
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	if opts.Lambda < 0 {
		return nil, fmt.Errorf("logreg: negative lambda %v", opts.Lambda)
	}

	// Optionally standardize into a working copy.
	mean := make([]float64, d)
	std := make([]float64, d)
	for j := range std {
		std[j] = 1
	}
	work := x
	if opts.Standardize {
		work = make([][]float64, n)
		for j := 0; j < d; j++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += x[i][j]
			}
			mean[j] = s / float64(n)
			ss := 0.0
			for i := 0; i < n; i++ {
				dv := x[i][j] - mean[j]
				ss += dv * dv
			}
			sd := math.Sqrt(ss / float64(n))
			if sd > 1e-12 {
				std[j] = sd
			}
		}
		for i := 0; i < n; i++ {
			row := make([]float64, d)
			for j := 0; j < d; j++ {
				row[j] = (x[i][j] - mean[j]) / std[j]
			}
			work[i] = row
		}
	}

	w, b, iters := fista(work, y, opts)

	// Map coefficients back to the original feature space.
	model := &Model{Weights: make([]float64, d), Lambda: opts.Lambda, Iters: iters}
	model.Bias = b
	for j := 0; j < d; j++ {
		model.Weights[j] = w[j] / std[j]
		model.Bias -= w[j] * mean[j] / std[j]
	}
	return model, nil
}

// fista runs accelerated proximal gradient descent on the ℓ1-penalized
// logistic loss. The bias is unpenalized. Returns weights, bias, iterations.
func fista(x [][]float64, y []int, opts Options) ([]float64, float64, int) {
	d := len(x[0])
	w := make([]float64, d)
	b := 0.0
	// Momentum variables.
	wPrev := make([]float64, d)
	bPrev := 0.0
	tMom := 1.0

	// Backtracking step size.
	step := 1.0
	gradW := make([]float64, d)
	wLook := make([]float64, d)
	bLook := 0.0
	wNew := make([]float64, d)

	iters := 0
	for it := 0; it < opts.MaxIter; it++ {
		iters = it + 1
		// Lookahead (momentum) point.
		tNext := (1 + math.Sqrt(1+4*tMom*tMom)) / 2
		beta := (tMom - 1) / tNext
		for j := 0; j < d; j++ {
			wLook[j] = w[j] + beta*(w[j]-wPrev[j])
		}
		bLook = b + beta*(b-bPrev)

		lossLook, gradB := gradient(x, y, wLook, bLook, gradW)

		// Backtracking line search on the smooth part.
		var bNew float64
		for {
			for j := 0; j < d; j++ {
				wNew[j] = softThreshold(wLook[j]-step*gradW[j], step*opts.Lambda)
			}
			bNew = bLook - step*gradB
			if sufficientDecrease(x, y, wLook, bLook, wNew, bNew, gradW, gradB, lossLook, step) {
				break
			}
			step /= 2
			if step < 1e-12 {
				break
			}
		}

		// Convergence check on the parameter change.
		delta := math.Abs(bNew - b)
		for j := 0; j < d; j++ {
			if dj := math.Abs(wNew[j] - w[j]); dj > delta {
				delta = dj
			}
		}
		copy(wPrev, w)
		bPrev = b
		copy(w, wNew)
		b = bNew
		tMom = tNext
		if delta < opts.Tol {
			break
		}
	}
	return w, b, iters
}

// gradient computes the smooth logistic loss at (w, b) and writes its
// weight gradient into gradW, returning (loss, biasGradient).
func gradient(x [][]float64, y []int, w []float64, b float64, gradW []float64) (float64, float64) {
	n := len(x)
	d := len(w)
	for j := range gradW {
		gradW[j] = 0
	}
	gradB := 0.0
	loss := 0.0
	for i := 0; i < n; i++ {
		m := b
		row := x[i]
		for j := 0; j < d; j++ {
			m += row[j] * w[j]
		}
		// z in {-1, +1}
		z := -1.0
		if y[i] == 1 {
			z = 1.0
		}
		zm := z * m
		loss += logistic(zm)
		// d/dm log(1+exp(-zm)) = -z * sigma(-zm)
		g := -z * sigmoid(-zm)
		gradB += g
		for j := 0; j < d; j++ {
			gradW[j] += g * row[j]
		}
	}
	inv := 1 / float64(n)
	for j := range gradW {
		gradW[j] *= inv
	}
	return loss * inv, gradB * inv
}

// smoothLoss evaluates only the logistic loss (no penalty).
func smoothLoss(x [][]float64, y []int, w []float64, b float64) float64 {
	n := len(x)
	loss := 0.0
	for i := 0; i < n; i++ {
		m := b
		row := x[i]
		for j := range w {
			m += row[j] * w[j]
		}
		z := -1.0
		if y[i] == 1 {
			z = 1.0
		}
		loss += logistic(z * m)
	}
	return loss / float64(n)
}

// sufficientDecrease is the standard backtracking acceptance test for
// proximal gradient: f(new) <= f(look) + <grad, new-look> + ||new-look||²/2s.
func sufficientDecrease(x [][]float64, y []int, wLook []float64, bLook float64, wNew []float64, bNew float64, gradW []float64, gradB, lossLook, step float64) bool {
	quad := 0.0
	lin := 0.0
	for j := range wNew {
		dj := wNew[j] - wLook[j]
		lin += gradW[j] * dj
		quad += dj * dj
	}
	db := bNew - bLook
	lin += gradB * db
	quad += db * db
	bound := lossLook + lin + quad/(2*step)
	return smoothLoss(x, y, wNew, bNew) <= bound+1e-12
}

// oracleLambdaMax is the parent commit's LambdaMax: it returns the smallest penalty that drives every coefficient to
// zero: the ∞-norm of the loss gradient at w=0 (with bias at the empirical
// log-odds). Training with Lambda >= LambdaMax yields an all-zero weight
// vector; useful as the top of a regularization path.
func oracleLambdaMax(x [][]float64, y []int) (float64, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return 0, errNoData
	}
	d := len(x[0])
	pos := 0
	for _, yi := range y {
		pos += yi
	}
	p := float64(pos) / float64(n)
	if p == 0 || p == 1 {
		return 0, errOneClass
	}
	// With w=0 and bias at log-odds, residual r_i = p - y_i.
	maxAbs := 0.0
	for j := 0; j < d; j++ {
		g := 0.0
		for i := 0; i < n; i++ {
			g += (p - float64(y[i])) * x[i][j]
		}
		if a := math.Abs(g / float64(n)); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs, nil
}

// oracleSelectTopK is the parent commit's SelectTopK: it trains models along a decreasing regularization path until at
// least k features have non-zero coefficients, then returns the k with the
// largest standardized coefficient magnitudes. This is the "top ten metrics
// per crisis" step of §3.4. If fewer than k features ever activate, all
// active features are returned. The returned model operates on standardized
// features and is intended for feature ranking, not direct prediction on
// raw inputs.
func oracleSelectTopK(x [][]float64, y []int, k int) ([]int, *Model, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("logreg: k=%d must be positive", k)
	}
	std := standardizeCopy(x)
	lmax, err := oracleLambdaMax(std, y)
	if err != nil {
		return nil, nil, err
	}
	if lmax <= 0 {
		lmax = 1
	}
	var best *Model
	lambda := lmax / 2
	for step := 0; step < 12; step++ {
		m, err := oracleTrain(std, y, Options{Lambda: lambda, MaxIter: 500, Tol: 1e-6})
		if err != nil {
			return nil, nil, err
		}
		best = m
		if len(m.Selected()) >= k {
			break
		}
		lambda /= 2
	}
	return best.TopFeatures(k), best, nil
}

// standardizeCopy returns a zero-mean unit-variance copy of x.
func standardizeCopy(x [][]float64) [][]float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	d := len(x[0])
	out := make([][]float64, n)
	for j := 0; j < d; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += x[i][j]
		}
		mean := s / float64(n)
		ss := 0.0
		for i := 0; i < n; i++ {
			dv := x[i][j] - mean
			ss += dv * dv
		}
		sd := math.Sqrt(ss / float64(n))
		if sd <= 1e-12 {
			sd = 1
		}
		for i := 0; i < n; i++ {
			if out[i] == nil {
				out[i] = make([]float64, d)
			}
			out[i][j] = (x[i][j] - mean) / sd
		}
	}
	return out
}

// oracleCase is one generated training set. The generator covers what the
// kernel special-cases or could get wrong: widths that are not a multiple of
// the four-column interleave, constant columns (standardized to zeros, weight
// pinned at zero), duplicated rows, mixed feature scales and near-separable
// labels (large margins: the exp/log1p branches and the backtracking search).
type oracleCase struct {
	x [][]float64
	y []int
}

func genOracleCase(rng *rand.Rand) oracleCase {
	n, d := 2+rng.Intn(399), 1+rng.Intn(40)
	scale := make([]float64, d)
	constant := make([]bool, d)
	for j := range scale {
		scale[j] = math.Pow(10, float64(rng.Intn(4)-2))
		constant[j] = rng.Intn(8) == 0
	}
	signal := make([]float64, 1+rng.Intn(3))
	for j := range signal {
		signal[j] = rng.NormFloat64() * 2
	}
	separable := rng.Intn(3) == 0
	c := oracleCase{x: make([][]float64, n), y: make([]int, n)}
	for i := range c.x {
		if i > 0 && rng.Intn(10) == 0 {
			src := rng.Intn(i)
			c.x[i], c.y[i] = append([]float64(nil), c.x[src]...), c.y[src]
			continue
		}
		row := make([]float64, d)
		logit := 0.0
		for j := range row {
			v := rng.NormFloat64()
			if j < len(signal) {
				logit += signal[j] * v
			}
			row[j] = 3 + v*scale[j]
			if constant[j] {
				row[j] = 7
			}
		}
		switch {
		case separable && rng.Intn(50) > 0:
			if logit > 0 {
				c.y[i] = 1
			}
		case rng.Float64() < 1/(1+math.Exp(-logit)):
			c.y[i] = 1
		}
		c.x[i] = row
	}
	c.y[0], c.y[1] = 0, 1
	return c
}

func cloneRows(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// sameRows requires got to still be want bit for bit: the entry points that
// take rows copy them and must leave the caller's untouched.
func sameRows(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s modified x[%d][%d]", what, i, j)
			}
		}
	}
}

// sameModel requires got to be want bit for bit.
func sameModel(t *testing.T, what string, got, want *Model) {
	t.Helper()
	if got.Iters != want.Iters || got.Lambda != want.Lambda || math.Float64bits(got.Bias) != math.Float64bits(want.Bias) {
		t.Fatalf("%s: iters/lambda/bias = %d/%v/%x, oracle %d/%v/%x", what,
			got.Iters, got.Lambda, math.Float64bits(got.Bias), want.Iters, want.Lambda, math.Float64bits(want.Bias))
	}
	if len(got.Weights) != len(want.Weights) {
		t.Fatalf("%s: %d weights, oracle %d", what, len(got.Weights), len(want.Weights))
	}
	for j := range want.Weights {
		if math.Float64bits(got.Weights[j]) != math.Float64bits(want.Weights[j]) {
			t.Fatalf("%s: weight %d = %v (%x), oracle %v (%x)", what, j,
				got.Weights[j], math.Float64bits(got.Weights[j]), want.Weights[j], math.Float64bits(want.Weights[j]))
		}
	}
}

// TestOracleTrainBitIdentical: Train reproduces the row-oriented reference's
// iterate exactly — same iteration count, bias and every weight equal by
// math.Float64bits — across penalties from none to past λmax, with and
// without standardization, stopped by MaxIter and stopped by Tol, and never
// touches its input.
func TestOracleTrainBitIdentical(t *testing.T) {
	cases := 40
	if testing.Short() {
		cases = 8
	}
	rng := rand.New(rand.NewSource(15))
	release, releaseCert := holdScreen(t), holdCert(t)
	hitMaxIter, hitTol := 0, 0
	for ci := 0; ci < cases; ci++ {
		c := genOracleCase(rng)
		before := cloneRows(c.x)
		lmax, err := oracleLambdaMax(standardizeCopy(c.x), c.y)
		if err != nil {
			t.Fatal(err)
		}
		for _, lambda := range []float64{0, 1e-4 * lmax, 0.3 * lmax, 1.2 * lmax} {
			for _, opts := range []Options{
				DefaultOptions(lambda),
				{Lambda: lambda, MaxIter: 9, Tol: 1e-9, Standardize: true},
				{Lambda: lambda, MaxIter: 200, Tol: 1e-2, Standardize: ci%2 == 0},
			} {
				what := fmt.Sprintf("case %d (n=%d d=%d) opts %+v", ci, len(c.x), len(c.x[0]), opts)
				want, err := oracleTrain(c.x, c.y, opts)
				if err != nil {
					t.Fatalf("%s: oracle: %v", what, err)
				}
				got, err := Train(c.x, c.y, opts)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameModel(t, what, got, want)
				if want.Iters == opts.MaxIter {
					hitMaxIter++
				} else {
					hitTol++
				}
			}
		}
		sameRows(t, fmt.Sprintf("case %d: Train", ci), c.x, before)
	}
	if hitMaxIter == 0 || hitTol == 0 {
		t.Fatalf("generator covered MaxIter stops %d times and Tol stops %d times; want both", hitMaxIter, hitTol)
	}
	if release() == 0 {
		t.Fatal("no column gradient was screened, so none was checked")
	}
	if releaseCert() == 0 {
		t.Fatal("no backtracking test was certified, so none was checked")
	}
}

// TestOracleSelectTopKBitIdentical walks the §3.4 regularization path three
// ways — the reference, the public copy-in entry point, and the in-place
// entry point over a set appended in ragged blocks the way the monitor
// collects epochs — and requires the same ranking and the same final model.
func TestOracleSelectTopKBitIdentical(t *testing.T) {
	cases := 24
	if testing.Short() {
		cases = 6
	}
	rng := rand.New(rand.NewSource(34))
	release, releaseCert := holdScreen(t), holdCert(t)
	screened := 0
	for ci := 0; ci < cases; ci++ {
		c := genOracleCase(rng)
		k := 1 + rng.Intn(12)
		what := fmt.Sprintf("case %d (n=%d d=%d k=%d)", ci, len(c.x), len(c.x[0]), k)
		wantTop, want, err := oracleSelectTopK(c.x, c.y, k)
		if err != nil {
			t.Fatalf("%s: oracle: %v", what, err)
		}
		before := cloneRows(c.x)
		top, m, err := SelectTopK(c.x, c.y, k)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		sameRows(t, what+": SelectTopK", c.x, before)

		var s Samples
		for lo := 0; lo < len(c.x); {
			hi := lo + 1 + rng.Intn(60)
			if hi > len(c.x) {
				hi = len(c.x)
			}
			pos := make([]bool, hi-lo)
			for i := range pos {
				pos[i] = c.y[lo+i] == 1
			}
			if err := s.Append(c.x[lo:hi], pos); err != nil {
				t.Fatalf("%s: Append: %v", what, err)
			}
			lo = hi
		}
		if x, y := s.Rows(); fmt.Sprint(x, y) != fmt.Sprint(c.x, c.y) {
			t.Fatalf("%s: Rows does not round-trip the appended blocks", what)
		}
		blockTop, blockM, st, err := s.SelectTopK(k)
		if err != nil {
			t.Fatalf("%s: blocks: %v", what, err)
		}
		if s.Len() != len(c.x) || st.Positives < 1 || st.Steps < 1 || st.Steps > 12 || st.Iters < want.Iters || st.Screened > st.Iters*len(c.x[0]) {
			t.Fatalf("%s: path stats %+v (final fit ran %d iterations)", what, st, want.Iters)
		}
		screened += st.Screened
		for name, got := range map[string]struct {
			top []int
			m   *Model
		}{"copy-in": {top, m}, "in-place blocks": {blockTop, blockM}} {
			if fmt.Sprint(got.top) != fmt.Sprint(wantTop) {
				t.Fatalf("%s %s: top = %v, oracle %v", what, name, got.top, wantTop)
			}
			sameModel(t, what+" "+name, got.m, want)
		}
	}
	// The hook, unless forceExact left it out (-1), saw the in-place paths'
	// skips and the copy-in paths' too.
	if checked := release(); screened == 0 || checked != -1 && checked < screened {
		t.Fatalf("hook checked %d screened column gradients, the in-place paths alone screened %d", checked, screened)
	}
	if releaseCert() == 0 {
		t.Fatal("no backtracking test was certified, so none was checked")
	}
}

// The old entry points indexed into rows, or summed labels, before anything
// checked them: a ragged row panicked SelectTopK inside standardizeCopy, and
// LambdaMax returned a number for a label of 2.
func TestOracleEntryPointsValidateFirst(t *testing.T) {
	ok := [][]float64{{1, 2}, {3, 1}, {0, 1}}
	for _, tc := range []struct {
		name string
		x    [][]float64
		y    []int
		k    int
		want error
	}{
		{"ragged rows", [][]float64{{1, 2}, {3}, {0, 1}}, []int{0, 1, 0}, 1, errDims},
		{"label 2", ok, []int{0, 2, 0}, 1, errLabelRange},
		{"negative label", ok, []int{0, -1, 1}, 1, errLabelRange},
		{"single class", ok, []int{1, 1, 1}, 1, errOneClass},
		{"label count", ok, []int{0, 1}, 1, errDims},
		{"no rows", nil, nil, 1, errNoData},
	} {
		if _, _, err := SelectTopK(tc.x, tc.y, tc.k); !errors.Is(err, tc.want) {
			t.Errorf("SelectTopK %s: err = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := lambdaMax(tc.x, tc.y); !errors.Is(err, tc.want) {
			t.Errorf("lambdaMax %s: err = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := Train(tc.x, tc.y, DefaultOptions(0.1)); !errors.Is(err, tc.want) {
			t.Errorf("Train %s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	y := []int{0, 1, 0}
	for _, k := range []int{0, -3} {
		if _, _, err := SelectTopK(ok, y, k); err == nil {
			t.Errorf("SelectTopK k=%d: want error", k)
		}
	}
	// k beyond the width is not an error: every feature that activates is returned.
	top, m, err := SelectTopK(ok, y, 5)
	if err != nil || m == nil || len(top) > 2 {
		t.Fatalf("SelectTopK k>d: top = %v, model %v, err %v", top, m, err)
	}
	var s Samples
	if err := s.Append([][]float64{{1, 2}}, []bool{true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([][]float64{{1, 2, 3}}, []bool{false}); !errors.Is(err, errDims) {
		t.Fatalf("Append of a wider block: err = %v, want %v", err, errDims)
	}
}

// TestOracleSelectTopKAllocs pins the path's allocations: the scratch is one
// slab per call, so the count does not grow with the number of rows, and
// collecting a block is one allocation plus the amortized list growth.
func TestOracleSelectTopKAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		rng := rand.New(rand.NewSource(5))
		x, y := synth(rng, n, 100, []float64{2, -2, 1.5}, -1.5)
		s, err := NewSamples(x, y)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(1, func() {
			if _, _, _, err := s.SelectTopK(10); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(300), allocs(1700)
	if large > 64 || small > 64 {
		t.Fatalf("SelectTopK allocations: %v at n=300, %v at n=1700; want <= 64 at both", small, large)
	}

	rng := rand.New(rand.NewSource(6))
	rows, _ := synth(rng, 100, 100, nil, 0)
	pos := make([]bool, len(rows))
	var s Samples
	const epochs = 64
	total := testing.AllocsPerRun(1, func() {
		s = Samples{}
		for e := 0; e < epochs; e++ {
			if err := s.Append(rows, pos); err != nil {
				t.Fatal(err)
			}
		}
	})
	// One block per epoch; the label and block lists grow geometrically, so
	// their share shrinks as the crisis lengthens.
	if total < epochs || total > epochs*3/2 {
		t.Fatalf("%d Appends allocated %v times, want one each plus list growth (<= %d)", epochs, total, epochs*3/2)
	}
}
