package logreg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// synth generates n samples with d features where only the first len(signal)
// features carry signal: logit = bias + Σ signal[j]*x_j.
func synth(rng *rand.Rand, n, d int, signal []float64, bias float64) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		logit := bias
		for j, s := range signal {
			logit += s * row[j]
		}
		p := 1 / (1 + math.Exp(-logit))
		if rng.Float64() < p {
			y[i] = 1
		}
		x[i] = row
	}
	return x, y
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, DefaultOptions(0.1)); err == nil {
		t.Fatal("want error on empty data")
	}
	x := [][]float64{{1}, {2}}
	if _, err := Train(x, []int{1, 1}, DefaultOptions(0.1)); err == nil {
		t.Fatal("want error on single-class labels")
	}
	if _, err := Train(x, []int{0, 2}, DefaultOptions(0.1)); err == nil {
		t.Fatal("want error on out-of-range label")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []int{0, 1}, DefaultOptions(0.1)); err == nil {
		t.Fatal("want error on ragged rows")
	}
	if _, err := Train(x, []int{0, 1}, Options{Lambda: -1}); err == nil {
		t.Fatal("want error on negative lambda")
	}
}

func TestTrainSeparableAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := synth(rng, 600, 5, []float64{3, -3}, 0)
	m, err := Train(x, y, DefaultOptions(0.01))
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		p, err := m.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		if (p >= 0.5) == (y[i] == 1) {
			correct++
		}
	}
	acc := float64(correct) / float64(len(x))
	if acc < 0.85 {
		t.Fatalf("training accuracy %v too low", acc)
	}
	// Signal feature signs must be recovered.
	if m.Weights[0] <= 0 || m.Weights[1] >= 0 {
		t.Fatalf("weights = %v; want w0>0, w1<0", m.Weights[:2])
	}
}

func TestL1DrivesIrrelevantWeightsToZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := synth(rng, 800, 40, []float64{2.5, -2.5, 2.0}, 0)
	m, err := Train(x, y, DefaultOptions(0.08))
	if err != nil {
		t.Fatal(err)
	}
	sel := m.Selected()
	if len(sel) == 0 || len(sel) > 15 {
		t.Fatalf("selected %d features, want sparse non-empty set: %v", len(sel), sel)
	}
	// The three signal features must dominate the ranking.
	top := m.TopFeatures(3)
	seen := map[int]bool{}
	for _, j := range top {
		seen[j] = true
	}
	for j := 0; j < 3; j++ {
		if !seen[j] {
			t.Fatalf("signal feature %d missing from top-3 %v (weights %v)", j, top, m.Weights[:5])
		}
	}
}

func TestSparsityIncreasesWithLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := synth(rng, 400, 20, []float64{2, -2}, 0)
	prev := math.MaxInt32
	for _, lambda := range []float64{0.01, 0.05, 0.2, 0.8} {
		m, err := Train(x, y, DefaultOptions(lambda))
		if err != nil {
			t.Fatal(err)
		}
		n := len(m.Selected())
		if n > prev {
			t.Fatalf("lambda=%v selected %d > previous %d; sparsity should not decrease", lambda, n, prev)
		}
		prev = n
	}
}

// lambdaMax is the top of SelectTopK's regularization path over x, y.
func lambdaMax(x [][]float64, y []int) (float64, error) {
	s, err := NewSamples(x, y)
	if err != nil {
		return 0, err
	}
	pos, err := s.positives()
	if err != nil {
		return 0, err
	}
	return newSolver(s, false).lambdaMax(pos), nil
}

func TestLambdaMaxKillsAllWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := synth(rng, 300, 10, []float64{2}, 0)
	std := standardizeCopy(x)
	lmax, err := lambdaMax(std, y)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(std, y, Options{Lambda: lmax * 1.05, MaxIter: 500, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	for j, w := range m.Weights {
		if math.Abs(w) > 1e-3 {
			t.Fatalf("weight %d = %v, want ~0 at lambda >= lambda_max", j, w)
		}
	}
}

func TestLambdaMaxValidation(t *testing.T) {
	if _, err := lambdaMax(nil, nil); err == nil {
		t.Fatal("want error on empty")
	}
	if _, err := lambdaMax([][]float64{{1}}, []int{1}); err == nil {
		t.Fatal("want error on one class")
	}
}

func TestPredictRangeAndDims(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := synth(rng, 200, 4, []float64{1.5}, 0.3)
	m, err := Train(x, y, DefaultOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		p, err := m.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("Predict = %v", p)
		}
	}
	if _, err := m.Predict([]float64{1}); err == nil {
		t.Fatal("want dimension error")
	}
}

func TestImbalancedClassesBiasOnly(t *testing.T) {
	// Pure-noise features with imbalanced classes: the model should
	// predict close to the base rate and select (almost) nothing.
	rng := rand.New(rand.NewSource(6))
	n := 500
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		if i%10 == 0 {
			y[i] = 1
		}
	}
	m, err := Train(x, y, DefaultOptions(0.1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Predict([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.1) > 0.05 {
		t.Fatalf("base-rate prediction = %v, want ~0.1", p)
	}
}

func TestSelectTopKRecoversSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := synth(rng, 900, 60, []float64{3, -3, 2.5, -2.5}, 0)
	sel, m, err := SelectTopK(x, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("nil model")
	}
	found := map[int]bool{}
	for _, j := range sel {
		found[j] = true
	}
	hits := 0
	for j := 0; j < 4; j++ {
		if found[j] {
			hits++
		}
	}
	if hits < 3 {
		t.Fatalf("SelectTopK found only %d/4 signal features: %v", hits, sel)
	}
}

// TestSamplesValidation: a label list that does not match the rows is a
// dimension error from both constructors — Append neither panics on a short
// one nor truncates a long one, and NewSamples does not call it "no rows".
func TestSamplesValidation(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	// try reports a panic as an error, so a failure names the case.
	try := func(f func() error) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return f()
	}
	for _, tc := range []struct {
		name string
		rows [][]float64
		pos  []bool
		want error
	}{
		{"matching", rows, []bool{true, false, true}, nil},
		{"short labels", rows, []bool{true, false}, errDims},
		{"long labels", rows, []bool{true, false, true, false}, errDims},
		{"labels without rows", nil, []bool{true}, errDims},
		{"nothing", nil, nil, nil},
	} {
		var s Samples
		if err := try(func() error { return s.Append(tc.rows, tc.pos) }); !errors.Is(err, tc.want) {
			t.Errorf("Append %s: err = %v, want %v", tc.name, err, tc.want)
		}
		if tc.want != nil && (s.Len() != 0 || len(s.blocks) != 0) {
			t.Errorf("Append %s: refused, but the set holds %d rows in %d blocks", tc.name, s.Len(), len(s.blocks))
		}
	}
	for _, tc := range []struct {
		name string
		x    [][]float64
		y    []int
		want error
	}{
		{"matching", rows, []int{1, 0, 1}, nil},
		{"short labels", rows, []int{1, 0}, errDims},
		{"long labels", rows, []int{1, 0, 1, 0}, errDims},
		{"labels without rows", nil, []int{1}, errDims},
		{"label 2", rows, []int{1, 2, 0}, errLabelRange},
	} {
		if err := try(func() error { _, err := NewSamples(tc.x, tc.y); return err }); !errors.Is(err, tc.want) {
			t.Errorf("NewSamples %s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestNonFiniteSamplesRejected: a single NaN or infinite cell is an error
// from every entry point, where it used to poison its column's
// standardization and return a ranking after a one-iteration fit. Finite
// extremes that overflow only the squared norms are not errors.
func TestNonFiniteSamplesRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, y := synth(rng, 400, 20, []float64{2, -2, 1.5}, -1)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := cloneRows(x)
		bad[123][7] = v
		if top, _, err := SelectTopK(bad, y, 5); !errors.Is(err, errNonFinite) {
			t.Errorf("SelectTopK with a %v cell: top %v, err = %v, want %v", v, top, err, errNonFinite)
		}
		s, err := NewSamples(bad, y)
		if err != nil {
			t.Fatal(err)
		}
		if top, _, _, err := s.SelectTopK(5); !errors.Is(err, errNonFinite) {
			t.Errorf("Samples.SelectTopK with a %v cell: top %v, err = %v, want %v", v, top, err, errNonFinite)
		}
		for _, standardize := range []bool{true, false} {
			opts := DefaultOptions(0.01)
			opts.Standardize = standardize
			if _, err := Train(bad, y, opts); !errors.Is(err, errNonFinite) {
				t.Errorf("Train (standardize %v) with a %v cell: err = %v, want %v", standardize, v, err, errNonFinite)
			}
		}
	}
	huge := cloneRows(x)
	for _, row := range huge {
		row[3] *= 1e300
	}
	opts := DefaultOptions(0.01)
	opts.Standardize = false
	if _, err := Train(huge, y, opts); err != nil {
		t.Errorf("Train on finite values up to %v: %v", 1e300, err)
	}
	if _, _, err := SelectTopK(huge, y, 5); err != nil {
		t.Errorf("SelectTopK on finite values up to %v: %v", 1e300, err)
	}
}

func TestSelectTopKValidation(t *testing.T) {
	if _, _, err := SelectTopK(nil, nil, 0); err == nil {
		t.Fatal("want error on k=0")
	}
	if _, _, err := SelectTopK([][]float64{{1}}, []int{1}, 2); err == nil {
		t.Fatal("want error on one-class labels")
	}
}

func TestTopFeaturesOrderingAndBounds(t *testing.T) {
	m := &Model{Weights: []float64{0, -3, 1, 0, 2}}
	top := m.TopFeatures(10)
	want := []int{1, 4, 2}
	if len(top) != 3 {
		t.Fatalf("TopFeatures = %v", top)
	}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopFeatures = %v, want %v", top, want)
		}
	}
	if got := m.TopFeatures(2); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("TopFeatures(2) = %v", got)
	}
}

func TestStandardizeCopy(t *testing.T) {
	x := [][]float64{{1, 100}, {2, 100}, {3, 100}}
	s := standardizeCopy(x)
	// Column 0: mean 2, sd sqrt(2/3).
	if math.Abs(s[0][0]+s[2][0]) > 1e-12 || s[1][0] != 0 {
		t.Fatalf("standardized col0 = %v %v %v", s[0][0], s[1][0], s[2][0])
	}
	// Constant column becomes zeros.
	for i := range s {
		if s[i][1] != 0 {
			t.Fatalf("constant column not zeroed: %v", s[i][1])
		}
	}
	if standardizeCopy(nil) != nil {
		t.Fatal("standardizeCopy(nil) should be nil")
	}
	// The production standardizer works in place on the column-major set and
	// reports what it subtracted and divided by.
	set, err := NewSamples(x, []int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	mean, std := make([]float64, 2), make([]float64, 2)
	set.standardize(mean, std)
	if got, _ := set.Rows(); fmt.Sprint(got) != fmt.Sprint(s) {
		t.Fatalf("Samples.standardize = %v, want %v", got, s)
	}
	if mean[0] != 2 || mean[1] != 100 || std[0] != math.Sqrt(2.0/3) || std[1] != 1 {
		t.Fatalf("mean %v, std %v", mean, std)
	}
}

// Property: sigmoid and logistic loss are consistent and stable for large
// magnitudes.
func TestSigmoidLogisticProperty(t *testing.T) {
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		tv := math.Max(-1e6, math.Min(1e6, raw))
		s := sigmoid(tv)
		if s < 0 || s > 1 || math.IsNaN(s) {
			return false
		}
		l := logistic(tv)
		return l >= 0 && !math.IsNaN(l) && !math.IsInf(l, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// sigmoid symmetry.
	if math.Abs(sigmoid(3)+sigmoid(-3)-1) > 1e-12 {
		t.Fatal("sigmoid symmetry broken")
	}
}

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ v, k, want float64 }{
		{5, 2, 3}, {-5, 2, -3}, {1, 2, 0}, {-1, 2, 0}, {2, 2, 0},
	}
	for _, c := range cases {
		if got := softThreshold(c.v, c.k); got != c.want {
			t.Errorf("softThreshold(%v,%v) = %v, want %v", c.v, c.k, got, c.want)
		}
	}
}

// Property: training never produces NaN weights on bounded data.
func TestTrainFiniteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		n := 50 + rng.Intn(100)
		d := 1 + rng.Intn(10)
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			row := make([]float64, d)
			for j := range row {
				row[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
			}
			x[i] = row
			y[i] = rng.Intn(2)
		}
		// Ensure both classes appear.
		y[0], y[1] = 0, 1
		m, err := Train(x, y, DefaultOptions(0.05))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range m.Weights {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatalf("non-finite weight %v", w)
			}
		}
		if math.IsNaN(m.Bias) || math.IsInf(m.Bias, 0) {
			t.Fatalf("non-finite bias %v", m.Bias)
		}
	}
}

// TestAppendBlockMatchesAppend: a metric-major block handed over whole is
// the set Append builds from the same rows, block for block, Block hands the
// set back as one such block, and the wrong shapes are refused without
// touching the set.
func TestAppendBlockMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const d = 7
	var byRow, byCol Samples
	for _, n := range []int{5, 1, 12} {
		rows := make([][]float64, n)
		pos := make([]bool, n)
		x := make([]float64, d*n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64()
				x[j*n+i] = rows[i][j]
			}
			pos[i] = rng.Intn(2) == 0
		}
		if err := byRow.Append(rows, pos); err != nil {
			t.Fatal(err)
		}
		if err := byCol.AppendBlock(x, pos); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(byRow, byCol) {
		t.Fatal("AppendBlock built a different set than Append over the same rows")
	}
	// Block is the whole set as one block: the same rows and labels.
	var whole Samples
	if err := whole.AppendBlock(byCol.Block()); err != nil {
		t.Fatal(err)
	}
	wx, wy := whole.Rows()
	if rx, ry := byRow.Rows(); !reflect.DeepEqual(wx, rx) || !reflect.DeepEqual(wy, ry) {
		t.Fatal("Block lost or reordered rows")
	}
	for _, tc := range []struct {
		name string
		x    []float64
		pos  []bool
	}{
		{"one value short", make([]float64, d*2-1), []bool{true, false}},
		{"one value long", make([]float64, d*2+1), []bool{true, false}},
		{"values without labels", make([]float64, d), nil},
	} {
		s := byCol
		before := s.Len()
		err := s.AppendBlock(tc.x, tc.pos)
		if !errors.Is(err, errDims) || s.Len() != before {
			t.Errorf("AppendBlock %s: err %v, %d rows; want %v and %d rows", tc.name, err, s.Len(), errDims, before)
		}
	}
	var empty Samples
	if err := empty.AppendBlock(make([]float64, 3), []bool{true, false}); !errors.Is(err, errDims) {
		t.Errorf("AppendBlock of 3 values over 2 rows into an empty set: err %v, want %v", err, errDims)
	}
}
