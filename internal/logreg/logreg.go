// Package logreg implements L1-regularized logistic regression trained with
// an accelerated proximal gradient method (FISTA with backtracking).
//
// This is the statistical machine-learning method the paper uses for
// relevant-metric selection (§3.4): the ℓ1 constraint on the parameter
// vector forces irrelevant coefficients to exactly zero, so fitting the
// classifier "performance of machine m at time t is anomalous" vs. the
// ~100 collected metrics concurrently performs feature selection. The
// estimator matches [Young & Hastie; Koh, Kim & Boyd]; only the optimizer
// differs (the method is solver-agnostic).
package logreg

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Options configures training.
type Options struct {
	// Lambda is the ℓ1 penalty strength. Zero means unregularized.
	Lambda float64
	// MaxIter bounds the number of FISTA iterations (default 500).
	MaxIter int
	// Tol is the stopping tolerance on the parameter change per iteration
	// (default 1e-6).
	Tol float64
	// Standardize, if true (the recommended setting), scales features to
	// zero mean / unit variance before fitting, so the penalty treats all
	// metrics comparably regardless of their units.
	Standardize bool
}

// DefaultOptions returns the options used by the fingerprinting pipeline.
func DefaultOptions(lambda float64) Options {
	return Options{Lambda: lambda, MaxIter: 500, Tol: 1e-6, Standardize: true}
}

// Model is a fitted logistic regression classifier.
type Model struct {
	// Weights are the coefficients in the original (unstandardized)
	// feature space; exactly-zero entries are unselected features.
	Weights []float64
	// Bias is the intercept in the original feature space.
	Bias float64
	// Lambda records the penalty the model was trained with.
	Lambda float64
	// Iters records how many optimizer iterations ran.
	Iters int
}

var (
	errNoData     = errors.New("logreg: no training rows")
	errOneClass   = errors.New("logreg: training labels contain a single class")
	errDims       = errors.New("logreg: inconsistent feature dimensions")
	errLabelRange = errors.New("logreg: labels must be 0 or 1")
	errNonFinite  = errors.New("logreg: non-finite sample value")
)

// Samples is a training set held metric-major in blocks, so column j of the
// whole set is one contiguous segment per block, in row order — what the
// solver streams through. The zero value is an empty set; Append grows it
// by one block per call.
type Samples struct {
	d      int
	blocks []block
	y      []bool // label of every row (true = 1), in block order
}

// block holds n rows as d runs of n values: x[j*n+i] is row i, column j.
type block struct {
	x []float64
	n int
}

func (b block) col(j int) []float64 { return b.x[j*b.n : (j+1)*b.n] }

// NewSamples copies row-major x and its 0/1 labels y into a one-block set,
// leaving x untouched.
func NewSamples(x [][]float64, y []int) (*Samples, error) {
	if len(y) != len(x) {
		return nil, errDims
	}
	pos := make([]bool, len(y))
	for i, yi := range y {
		if yi != 0 && yi != 1 {
			return nil, errLabelRange
		}
		pos[i] = yi == 1
	}
	s := &Samples{}
	return s, s.Append(x, pos)
}

// Append copies rows (all of the set's width, which the first call fixes)
// and their labels, pos[i] for rows[i], into one new block: one allocation
// beyond the amortized growth of the lists. The rows are not retained.
func (s *Samples) Append(rows [][]float64, pos []bool) error {
	n := len(rows)
	if len(pos) != n {
		return errDims
	}
	if n == 0 {
		return nil
	}
	if len(s.blocks) == 0 {
		s.d = len(rows[0])
	}
	for _, row := range rows {
		if len(row) != s.d {
			return errDims
		}
	}
	x := make([]float64, s.d*n)
	for i, row := range rows {
		for j, v := range row {
			x[j*n+i] = v
		}
	}
	s.blocks = append(s.blocks, block{x, n})
	s.y = append(s.y, pos...)
	return nil
}

// AppendBlock adds len(pos) rows already held metric-major — x[j*n+i] is row
// i, column j — as one new block, with their labels. The set keeps x, which
// the caller gives up: a metric-major epoch joins the set with no transpose.
func (s *Samples) AppendBlock(x []float64, pos []bool) error {
	n := len(pos)
	if n == 0 {
		if len(x) != 0 {
			return errDims
		}
		return nil
	}
	if len(s.blocks) == 0 {
		if len(x) == 0 || len(x)%n != 0 {
			return errDims
		}
		s.d = len(x) / n
	}
	if len(x) != s.d*n {
		return errDims
	}
	s.blocks = append(s.blocks, block{x, n})
	s.y = append(s.y, pos...)
	return nil
}

// Len is the number of rows.
func (s *Samples) Len() int { return len(s.y) }

// Block returns a copy of the set as one metric-major block with its
// labels: what AppendBlock takes, block boundaries aside.
func (s *Samples) Block() ([]float64, []bool) {
	n := len(s.y)
	x := make([]float64, s.d*n)
	for j := 0; j < s.d; j++ {
		at := j * n
		for _, b := range s.blocks {
			at += copy(x[at:], b.col(j))
		}
	}
	return x, append([]bool(nil), s.y...)
}

// positives validates the set — at least one row, both classes present —
// and returns the number of label-1 rows.
func (s *Samples) positives() (int, error) {
	if len(s.y) == 0 {
		return 0, errNoData
	}
	pos := 0
	for _, yi := range s.y {
		if yi {
			pos++
		}
	}
	if pos == 0 || pos == len(s.y) {
		return 0, errOneClass
	}
	return pos, nil
}

// standardize scales every column to zero mean and unit variance in place
// (a constant column becomes zeros) and records the mean and divisor used
// per column. Each sum runs over the rows in block order.
func (s *Samples) standardize(mean, std []float64) {
	n := float64(len(s.y))
	for j := 0; j < s.d; j++ {
		sum := 0.0
		for _, b := range s.blocks {
			for _, v := range b.col(j) {
				sum += v
			}
		}
		mu := sum / n
		ss := 0.0
		for _, b := range s.blocks {
			for _, v := range b.col(j) {
				dv := v - mu
				ss += dv * dv
			}
		}
		sd := math.Sqrt(ss / n)
		if sd <= 1e-12 {
			sd = 1
		}
		for _, b := range s.blocks {
			col := b.col(j)
			for i, v := range col {
				col[i] = (v - mu) / sd
			}
		}
		mean[j], std[j] = mu, sd
	}
}

// Train fits an L1-regularized logistic regression of y (0/1 labels) on X
// (rows = samples, columns = features). X is copied, never modified.
func Train(x [][]float64, y []int, opts Options) (*Model, error) {
	s, err := NewSamples(x, y)
	if err != nil {
		return nil, err
	}
	if _, err := s.positives(); err != nil {
		return nil, err
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
	f := newSolver(s, opts.Standardize)
	if !f.finite {
		return nil, errNonFinite
	}
	b, iters, _ := f.fit(opts)

	// Map coefficients back to the original feature space.
	model := &Model{Weights: make([]float64, s.d), Bias: b, Lambda: opts.Lambda, Iters: iters}
	for j, w := range f.w {
		model.Weights[j] = w / f.std[j]
		model.Bias -= w * f.mean[j] / f.std[j]
	}
	return model, nil
}

// problem is what every fit over one Samples set reads and none writes: the
// samples (standardized by then), their label signs, the standardization
// Train undoes, each column's norm bound for screening, and the Gram matrix
// and column sums the line-search certificate reads.
type problem struct {
	s         *Samples
	z         []float64 // label signs: +1 for y = 1, -1 for y = 0
	mean, std []float64 // per column: standardization undone by Train (0, 1 = none)
	colNorm   []float64 // per column: ‖x_j‖₂ rounded up
	gram      []float64 // gram[j*d+k] = Σ_i x_ij·x_ik, computed in row order
	colSum    []float64 // per column: Σ_i x_ij, computed in row order
	finite    bool      // no value (after standardization) is NaN or ±Inf
}

// solver is the FISTA kernel: one lane's iterates, scratch and screening
// state over a shared problem. Its iterates are frozen: the §3.4 path mostly
// stops at MaxIter, not at Tol, so the selected features depend on the exact
// truncated iterate, and every sum that reaches an iterate keeps the order of
// the row-oriented reference in oracle_test.go. Margins add x·w over
// ascending j per row, skipping only w_j == 0 (adding ±0 to a finite margin
// is the identity); Xᵀg adds over ascending i per column; standardization
// sums in block (= collection) order. Loss values reach nothing but the
// backtracking test, so fit accepts a trial the logistic loss's curvature
// bound proves the test accepts (certify) and computes the reference's
// losses (exactSum) for every other test. Likewise a column's gradient
// reaches an iterate only through softThreshold, so gradient skips every
// column whose soft-threshold a certified bound shows to be zero (screen).
type solver struct {
	*problem
	m, g []float64 // per row: margin, d loss / d margin

	w, wPrev, wLook, wNew, gradW []float64

	// At the lookahead point, for certify: Σ max(0, −zm) and ‖g‖₂'s bound.
	lookA, gNorm float64
	nz           []int     // certify's scratch: the coordinates a trial moved
	dz           []float64 // and how far

	// Screening state: per column, |Σ g_i x_ij| at its last evaluation
	// (+Inf before the first), and path and ‖g‖₂'s bound at that call; path
	// bounds Σ ‖g^t − g^{t−1}‖₂ over every gradient call so far. The samples
	// never change, so all of it outlives a fit.
	refSum, refPath, refNorm []float64
	path                     float64
	live                     []int // columns gradient evaluates this call

	certified   int // backtracking tests certify accepted
	exactChecks int // backtracking tests left to the reference's losses
	screened    int // column gradients screen skipped

	// quit, when set, abandons the fit as soon as *quit <= at: the path step
	// it is fitting can no longer be the result.
	quit *atomic.Int32
	at   int32
}

// forceExact sends every backtracking test down the exact path, so the
// oracle tests can hold the fallback to the reference too. Only internal
// tests set it.
var forceExact bool

// checkScreen, when set, is handed every column gradient screen skipped,
// computed anyway, with the bound that skipped it and the penalty, so the
// certificate tests can hold |gw| <= bound <= lambda. Lanes call it
// concurrently. Only internal tests set it.
var checkScreen func(gw, bound, lambda float64)

// checkCert, when set, is handed every backtracking test certify accepted,
// decided anyway: the reference's trial loss and the right side of its test,
// so the certificate tests can hold trial <= bound. Lanes call it
// concurrently. Only internal tests set it.
var checkCert func(trial, bound float64)

// newProblem sets up the shared data over s, standardizing s in place first
// when standardize is set. The one pass over every value that bounds the
// column norms also notes whether all of them are finite; the Gram matrix
// and column sums run through dots, against each column and a ones vector.
func newProblem(s *Samples, standardize bool) *problem {
	n, d := len(s.y), s.d
	buf := make([]float64, n+4*d+d*d)
	next := func(k int) []float64 {
		out := buf[:k:k]
		buf = buf[k:]
		return out
	}
	p := &problem{s: s, z: next(n), mean: next(d), std: next(d), colNorm: next(d), colSum: next(d), gram: next(d * d), finite: true}
	for i, yi := range s.y {
		p.z[i] = -1
		if yi {
			p.z[i] = 1
		}
	}
	for j := range p.std {
		p.std[j] = 1
	}
	if standardize {
		s.standardize(p.mean, p.std)
	}
	for j := range p.colNorm {
		ss, nan := 0.0, 0.0
		for _, b := range s.blocks {
			for _, v := range b.col(j) {
				ss += v * v
				nan += v - v // +0 while every v is finite, NaN after any other
			}
		}
		p.colNorm[j] = p.normBound(ss)
		p.finite = p.finite && nan == 0
	}
	v, cols := make([]float64, n), make([]int, d)
	for j := range cols {
		cols[j] = j
	}
	for i := range v {
		v[i] = 1
	}
	p.dots(v, cols, p.colSum)
	for j := range cols {
		off := 0
		for _, b := range s.blocks {
			off += copy(v[off:], b.col(j))
		}
		row := p.gram[j*d : (j+1)*d]
		p.dots(v, cols[j:], row)
		for k := j + 1; k < d; k++ {
			p.gram[k*d+j] = row[k]
		}
	}
	return p
}

// lanes returns k solvers over p with their scratch carved from one slab.
func (p *problem) lanes(k int) []solver {
	n, d := len(p.z), p.s.d
	buf := make([]float64, k*(2*n+9*d))
	next := func(k int) []float64 {
		out := buf[:k:k]
		buf = buf[k:]
		return out
	}
	ints := make([]int, 2*k*d)
	fs := make([]solver, k)
	for l := range fs {
		fs[l] = solver{problem: p, m: next(n), g: next(n),
			w: next(d), wPrev: next(d), wLook: next(d), wNew: next(d), gradW: next(d), dz: next(d)[:0],
			refSum: next(d), refPath: next(d), refNorm: next(d),
			live: ints[2*l*d : 2*l*d : (2*l+1)*d], nz: ints[(2*l+1)*d : (2*l+1)*d : (2*l+2)*d]}
		for j := range fs[l].refSum {
			fs[l].refSum[j] = math.Inf(1)
		}
	}
	return fs
}

// newSolver sets up one solver over s, standardizing s in place first when
// standardize is set.
func newSolver(s *Samples, standardize bool) *solver {
	return &newProblem(s, standardize).lanes(1)[0]
}

// fit runs accelerated proximal gradient descent on the ℓ1-penalized
// logistic loss from w = 0, leaving the weights in f.w. The bias is
// unpenalized. Returns bias and iterations, and false if quit abandoned the
// fit (the weights are then a partial iterate).
func (f *solver) fit(opts Options) (float64, int, bool) {
	w, wPrev, wLook, wNew, gradW := f.w, f.wPrev, f.wLook, f.wNew, f.gradW
	clear(w)
	clear(wPrev)
	b, bPrev := 0.0, 0.0
	tMom := 1.0 // momentum
	step := 1.0 // backtracking step size, never grown back

	iters := 0
	for it := 0; it < opts.MaxIter; it++ {
		if f.quit != nil && f.quit.Load() <= f.at {
			return b, iters, false
		}
		iters = it + 1
		// Lookahead (momentum) point.
		tNext := (1 + math.Sqrt(1+4*tMom*tMom)) / 2
		beta := (tMom - 1) / tNext
		for j := range w {
			wLook[j] = w[j] + beta*(w[j]-wPrev[j])
		}
		bLook := b + beta*(b-bPrev)

		gradB := f.gradient(wLook, bLook, opts.Lambda)
		var lossLook float64 // the reference's value, once a test needs it
		lookExact := false

		// Backtracking line search on the smooth part; the acceptance test is
		// f(new) <= f(look) + <grad, new-look> + ||new-look||²/2s, accepted
		// by certify where it can and decided exactly otherwise.
		var bNew float64
		for {
			lin, quad := 0.0, 0.0
			for j := range w {
				wNew[j] = softThreshold(wLook[j]-step*gradW[j], step*opts.Lambda)
				dj := wNew[j] - wLook[j]
				lin += gradW[j] * dj
				quad += dj * dj
			}
			bNew = bLook - step*gradB
			db := bNew - bLook
			lin += gradB * db
			quad += db * db
			q := quad / (2 * step)
			accept := !forceExact && f.certify(wLook, bLook, wNew, bNew, gradB, lin, q)
			if accept {
				f.certified++
				if checkCert != nil {
					checkCert(f.trialLoss(f.exactSum(wNew, bNew)), sufficient(f.lookLoss(f.exactSum(wLook, bLook)), lin, q))
				}
			} else {
				f.exactChecks++
				if !lookExact {
					lossLook, lookExact = f.lookLoss(f.exactSum(wLook, bLook)), true
				}
				accept = f.trialLoss(f.exactSum(wNew, bNew)) <= sufficient(lossLook, lin, q)
			}
			if accept {
				break
			}
			step /= 2
			if step < 1e-12 {
				break
			}
		}

		// Convergence check on the parameter change.
		delta := math.Abs(bNew - b)
		for j := range w {
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
	return b, iters, true
}

// sufficient is the right side of the backtracking test for a lookahead loss
// l, with the reference's association: ((l + lin) + quad/2s) + 1e-12.
func sufficient(l, lin, q float64) float64 { return l + lin + q + 1e-12 }

// certify reports whether the logistic loss's curvature bound proves that
// the reference's backtracking test accepts the trial (wNew, bNew) from the
// lookahead point (wLook, bLook), whose margins, derivative g and bias
// gradient gradient left behind, for the test's lin and q. It reads no row:
// ‖Δ margins‖² comes from the Gram matrix over the coordinates that moved.
// Each term is bounded up (DESIGN.md rule 6 derives them), and NaN or Inf
// anywhere certifies nothing.
func (f *solver) certify(wLook []float64, bLook float64, wNew []float64, bNew, gradB, lin, q float64) bool {
	const u = 0x1p-53
	gamma := func(k int) float64 { ku := float64(k) * u; return ku / (1 - ku) }
	n, d := len(f.m), f.s.d
	nf, rn := float64(n), math.Sqrt(float64(n))
	// |b|√n + Σ|w_j|c_j over each point's kL, kN margin terms; for the step
	// Δ, ad the same, a1 = Σ|Δ_j| and bs = Σ|lin's products|.
	db := bNew - bLook
	aL, aN, ad := math.Abs(bLook)*rn, math.Abs(bNew)*rn, math.Abs(db)*rn
	a1, bs := math.Abs(db), math.Abs(gradB*db)
	kL, kN := 1, 1
	nz, dz := f.nz[:0], f.dz[:0]
	for j, c := range f.colNorm {
		if wLook[j] != 0 {
			aL += math.Abs(wLook[j]) * c
			kL++
		}
		if wNew[j] != 0 {
			aN += math.Abs(wNew[j]) * c
			kN++
		}
		if dj := wNew[j] - wLook[j]; dj != 0 {
			nz, dz = append(nz, j), append(dz, dj)
			ad += math.Abs(dj) * c
			a1 += math.Abs(dj)
			bs += math.Abs(f.gradW[j] * dj)
		}
	}
	// ‖XΔ + Δb·1‖² = ΔᵀGΔ + 2Δb·sᵀΔ + nΔb², within eq of its computed value.
	quad, cross := nf*db*db, 0.0
	for t, j := range nz {
		row, inner := f.gram[j*d:(j+1)*d], 0.0
		for s, k := range nz {
			inner += row[k] * dz[s]
		}
		quad += dz[t] * inner
		cross += f.colSum[j] * dz[t]
	}
	quad += 2 * db * cross
	eq := gamma(n+4*len(nz)+32)*ad*ad + nf*0x1p-1070*a1*a1 + 0x1p-1000
	rho := gamma(2*kL+4)*aL + gamma(2*kN+4)*aN                  // both margin vectors' rounding
	dm := math.Sqrt(max(quad+eq, 0)) + 2*u*ad + rho + 0x1p-1000 // ≥ ‖Δ computed margins‖
	curv := dm * dm / (8 * nf)
	// |(1/n)Σ g*_i·Δm_i − lin|: σ and exp, the margins' rounding, the dot
	// products and gradB's sum, their scaling and Δ's rounding, lin's sum.
	g := f.gNorm
	lerr := ((16*u*g+rn*0x1p-1060)*dm+g*rho+gamma(n+4)*g*ad)/nf + gamma(2*d+16)*bs + 0x1p-1060*a1
	// The reference's two loss sums (S_look ≤ a + n·ln 2, S_trial through
	// the bound itself), their scalings and the right side's three adds.
	sl := f.lookA*(1+gamma(2*n+4)) + nf*math.Ln2*(1+4*u)
	sn := sl + nf*(math.Abs(lin)+lerr+curv)
	round := gamma(n+24)*(sl+sn)/nf + 4*u*(sl/nf+math.Abs(lin)+q+1e-12)
	total := (lerr + curv + round + 0x1p-1000) * (1 + float64(4*d+256)*u)
	return total <= min(q+1e-12, math.MaxFloat64)
}

// lookLoss and trialLoss scale a loss sum as the reference does at the
// lookahead point (its gradient: sum·(1/n)) and at a trial point (its
// smoothLoss: sum/n); the two can differ in the last bit.
func (f *solver) lookLoss(sum float64) float64  { return sum * (1 / float64(len(f.m))) }
func (f *solver) trialLoss(sum float64) float64 { return sum / float64(len(f.m)) }

// margins sets f.m[i] = b + Σ_j x_ij·w_j over the columns with a non-zero
// weight (after soft-thresholding, a handful), four at a time: the
// left-associated m + x₀w₀ + x₁w₁ + x₂w₂ + x₃w₃ adds each row's terms in
// ascending j, one rounding each, as a column at a time would.
func (f *solver) margins(w []float64, b float64) {
	for i := range f.m {
		f.m[i] = b
	}
	for j := 0; j < len(w); {
		var nz [4]int
		k := 0
		for ; j < len(w) && k < len(nz); j++ {
			if w[j] != 0 {
				nz[k] = j
				k++
			}
		}
		off := 0
		for _, blk := range f.s.blocks {
			m := f.m[off : off+blk.n]
			off += blk.n
			if k == len(nz) {
				c0, c1, c2, c3 := blk.col(nz[0])[:len(m)], blk.col(nz[1])[:len(m)], blk.col(nz[2])[:len(m)], blk.col(nz[3])[:len(m)]
				w0, w1, w2, w3 := w[nz[0]], w[nz[1]], w[nz[2]], w[nz[3]]
				for i := range m {
					m[i] = m[i] + c0[i]*w0 + c1[i]*w1 + c2[i]*w2 + c3[i]*w3
				}
				continue
			}
			for _, jj := range nz[:k] {
				wj := w[jj]
				for i, v := range blk.col(jj)[:len(m)] {
					m[i] += v * wj
				}
			}
		}
	}
}

// exactSum is the reference's loss sum at (w, b): each row's log1p term
// added in row order. It runs only for a test certify leaves undecided.
func (f *solver) exactSum(w []float64, b float64) float64 {
	f.margins(w, b)
	sum := 0.0
	for i, m := range f.m {
		sum += logistic(f.z[i] * m)
	}
	return sum
}

// gradient writes the weight gradient at (w, b) into f.gradW, and Σ max(0,
// −zm) and ‖g‖₂'s bound into f.lookA and f.gNorm for certify, and returns
// the bias gradient. A column with w_j = 0 whose certified bound on the
// kernel's |gradW_j| is at most lambda is screened: softThreshold would map
// it to 0 at any step, so gradient writes 0 without the dot product and the
// iterate is the same (DESIGN.md rule 7).
func (f *solver) gradient(w []float64, b, lambda float64) float64 {
	f.margins(w, b)
	a, gradB := 0.0, 0.0
	dd, gg := 0.0, 0.0 // Σ (g_i − last call's g_i)², Σ g_i²
	g := f.g
	for i, zi := range f.z {
		// The derivative -z·σ(-zm), from exp(-|zm|) as the reference's sigmoid.
		zm := zi * f.m[i]
		var sig float64
		if zm > 0 {
			e := math.Exp(-zm)
			sig = e / (1 + e)
		} else {
			a += -zm
			sig = 1 / (1 + math.Exp(zm))
		}
		gi := -zi * sig
		gradB += gi
		dg := gi - g[i]
		dd += dg * dg
		gg += gi * gi
		g[i] = gi
	}
	f.lookA = a
	inv := 1 / float64(len(f.m))
	f.path = (f.path + f.normBound(dd)) * (1 + 0x1p-50) // rounded up
	norm := f.normBound(gg)
	f.gNorm = norm

	// |S_j| ≤ refSum + colNorm·((path − refPath) + γₙ·(refNorm + norm)) for
	// the kernel's dot product S_j; 2⁻¹⁰⁰⁰ covers underflow in both dot
	// products and here, and the last factor this arithmetic's own rounding.
	// A NaN or infinite bound screens nothing.
	const u = 0x1p-53
	nu := float64(len(f.m)) * u
	gamma := nu / (1 - nu)
	limit := min(lambda, math.MaxFloat64)
	d, gw := f.s.d, f.gradW
	live := f.live[:0]
	var skipped []int    // with checkScreen: the screened columns
	var bounds []float64 // and their bounds
	for j := 0; j < d; j++ {
		if w[j] == 0 {
			bound := (f.refSum[j] + f.colNorm[j]*((f.path-f.refPath[j])+gamma*(f.refNorm[j]+norm)) + 0x1p-1000) * (1 + 0x1p-48) * inv
			if bound <= limit {
				gw[j] = 0
				f.screened++
				if checkScreen != nil {
					skipped, bounds = append(skipped, j), append(bounds, bound)
				}
				continue
			}
		}
		live = append(live, j)
	}
	// gradW = Xᵀg/n over the live columns; each sum becomes its column's
	// reference.
	f.dots(f.g, live, gw)
	for _, j := range live {
		sum := gw[j]
		gw[j] = sum * inv
		f.refSum[j], f.refPath[j], f.refNorm[j] = math.Abs(sum), f.path, norm
	}
	if checkScreen != nil {
		sums := make([]float64, d)
		f.dots(f.g, skipped, sums)
		for k, j := range skipped {
			checkScreen(sums[j]*inv, bounds[k], lambda)
		}
	}
	return gradB * inv
}

// dots sets out[j] = Σ_i v_i·x_ij for each listed column j, v being one
// value per row: each dot product adds in row order; four columns share a
// pass over v so their add chains overlap. Past the last column a group
// repeats it (same sum, same slot) instead of branching.
func (p *problem) dots(v []float64, cols []int, out []float64) {
	last := len(cols) - 1
	for k := 0; k <= last; k += 4 {
		j0, j1, j2, j3 := cols[k], cols[min(k+1, last)], cols[min(k+2, last)], cols[min(k+3, last)]
		var s0, s1, s2, s3 float64
		off := 0
		for _, blk := range p.s.blocks {
			g := v[off : off+blk.n]
			c0, c1, c2, c3 := blk.col(j0)[:len(g)], blk.col(j1)[:len(g)], blk.col(j2)[:len(g)], blk.col(j3)[:len(g)]
			for i, gi := range g {
				s0 += gi * c0[i]
				s1 += gi * c1[i]
				s2 += gi * c2[i]
				s3 += gi * c3[i]
			}
			off += blk.n
		}
		out[j0], out[j1], out[j2], out[j3] = s0, s1, s2, s3
	}
}

// normBound turns a computed sum ss of n squares (of values or of rounded
// differences) into an upper bound on the exact 2-norm: ss is at least
// (1 − γ_{n+3}) of the exact sum less n·2⁻¹⁰⁷⁵ of underflow (Higham), so the
// added n·2⁻¹⁰⁷⁴ and the factor 1 + 2(n+8)u cover that, the square root and
// this arithmetic's rounding.
func (p *problem) normBound(ss float64) float64 {
	const u = 0x1p-53
	n := len(p.z)
	return math.Sqrt(ss+float64(n)*0x1p-1074) * (1 + float64(2*(n+8))*u)
}

// logistic returns log(1 + exp(-t)) computed stably.
func logistic(t float64) float64 {
	if t > 0 {
		return math.Log1p(math.Exp(-t))
	}
	return -t + math.Log1p(math.Exp(t))
}

// sigmoid returns 1/(1+exp(-t)) computed stably.
func sigmoid(t float64) float64 {
	if t >= 0 {
		return 1 / (1 + math.Exp(-t))
	}
	e := math.Exp(t)
	return e / (1 + e)
}

func softThreshold(v, k float64) float64 {
	switch {
	case v > k:
		return v - k
	case v < -k:
		return v + k
	default:
		return 0
	}
}

// Predict returns P(y=1 | x).
func (m *Model) Predict(x []float64) (float64, error) {
	if len(x) != len(m.Weights) {
		return 0, errDims
	}
	s := m.Bias
	for j, w := range m.Weights {
		s += w * x[j]
	}
	return sigmoid(s), nil
}

// Selected returns the indices of features with non-zero coefficients.
func (m *Model) Selected() []int {
	var out []int
	for j, w := range m.Weights {
		if w != 0 {
			out = append(out, j)
		}
	}
	return out
}

// TopFeatures returns up to k feature indices ordered by decreasing
// coefficient magnitude, excluding exact zeros.
func (m *Model) TopFeatures(k int) []int {
	type fw struct {
		j int
		w float64
	}
	var fws []fw
	for j, w := range m.Weights {
		if w != 0 {
			fws = append(fws, fw{j, math.Abs(w)})
		}
	}
	sort.Slice(fws, func(a, b int) bool {
		if fws[a].w != fws[b].w {
			return fws[a].w > fws[b].w
		}
		return fws[a].j < fws[b].j
	})
	if k > len(fws) {
		k = len(fws)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = fws[i].j
	}
	return out
}

// lambdaMax returns the smallest penalty that drives every coefficient to
// zero: the ∞-norm of the loss gradient at w=0 (with bias at the empirical
// log-odds, pos of the labels being 1) — the top of SelectTopK's
// regularization path.
func (pr *problem) lambdaMax(pos int) float64 {
	n := float64(len(pr.z))
	p := float64(pos) / n
	// With w=0 and bias at log-odds, residual r_i = p - y_i, y_i = (z_i+1)/2.
	maxAbs := 0.0
	for j := 0; j < pr.s.d; j++ {
		g, off := 0.0, 0
		for _, b := range pr.s.blocks {
			for i, v := range b.col(j) {
				g += (p - (pr.z[off+i]+1)/2) * v
			}
			off += b.n
		}
		if a := math.Abs(g / n); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs
}

// PathStats describes one SelectTopK path: label-1 rows trained on,
// penalties fitted (Steps), their FISTA iterations in total, the
// backtracking tests the curvature certificate accepted (Certified) and the
// tests left to the reference's exact losses, every rejection included
// (ExactChecks), and the column gradients screening skipped (Screened, out
// of Iters × width). The counts cover the steps up to and including the one
// whose fit is returned; fits the lanes began past it and abandoned are not
// counted. Screened alone can depend on the lane count: a lane's screening
// references carry over from whichever step it fitted last.
type PathStats struct{ Positives, Steps, Iters, Certified, ExactChecks, Screened int }

// pathSteps is the most penalties SelectTopK fits, each half the last.
const pathSteps = 12

// SelectTopK trains models along a decreasing regularization path until at
// least k features have non-zero coefficients, then returns the k with the
// largest standardized coefficient magnitudes. This is the "top ten metrics
// per crisis" step of §3.4. If fewer than k features ever activate, all
// active features are returned. The returned model operates on standardized
// features and is intended for feature ranking, not direct prediction on
// raw inputs. x is copied, never modified.
func SelectTopK(x [][]float64, y []int, k int) ([]int, *Model, error) {
	s, err := NewSamples(x, y)
	if err != nil {
		return nil, nil, err
	}
	top, m, _, err := s.SelectTopK(k)
	return top, m, err
}

// SelectTopK is the package-level SelectTopK on a set the caller gives up:
// the samples are standardized in place, so the whole path — validation,
// standardization, λmax, every fit — runs on the one copy of the data, with
// scratch allocated once. A NaN or infinite value is an error.
//
// Every fit starts from w = 0 and carries nothing into the next but
// screening references, which reach no iterate (DESIGN.md rules 7 and 8),
// so each step's fit is a function of its λ alone. The path therefore runs
// in up to GOMAXPROCS lanes that claim steps in λ order: the first step whose
// fit activates k features is the last one that matters, no lane starts a
// step past it, and a fit already running past it is abandoned. The result,
// to the bit, is the serial walk's.
func (s *Samples) SelectTopK(k int) ([]int, *Model, PathStats, error) {
	if k <= 0 {
		return nil, nil, PathStats{}, fmt.Errorf("logreg: k=%d must be positive", k)
	}
	pos, err := s.positives()
	if err != nil {
		return nil, nil, PathStats{}, err
	}
	p := newProblem(s, true)
	if !p.finite {
		return nil, nil, PathStats{}, errNonFinite
	}
	r := &pathRun{k: k}
	lambda := p.lambdaMax(pos)
	if lambda <= 0 {
		lambda = 1
	}
	ws := make([]float64, pathSteps*s.d)
	for i := range r.steps {
		lambda /= 2
		r.steps[i].lambda = lambda
		r.steps[i].w = ws[i*s.d : (i+1)*s.d : (i+1)*s.d]
	}
	r.stop.Store(pathSteps)
	lanes := p.lanes(min(runtime.GOMAXPROCS(0), pathSteps))
	if len(lanes) > 1 {
		// One closure for every goroutine, each taking the next solver, so
		// the path's allocations do not grow with the lane count.
		work := func() {
			r.run(&lanes[r.lane.Add(1)])
			r.wg.Done()
		}
		r.wg.Add(len(lanes) - 1)
		for range lanes[1:] {
			go work()
		}
	}
	r.run(&lanes[0])
	r.wg.Wait()

	stop := int(r.stop.Load())
	st := PathStats{Positives: pos, Steps: stop}
	for _, sf := range r.steps[:stop] {
		st.Iters += sf.iters
		st.Certified += sf.certified
		st.ExactChecks += sf.exactChecks
		st.Screened += sf.screened
	}
	last := r.steps[stop-1]
	m := &Model{Weights: last.w, Bias: last.b, Lambda: last.lambda, Iters: last.iters}
	return m.TopFeatures(k), m, st, nil
}

// pathRun is one SelectTopK path shared by its lanes.
type pathRun struct {
	k     int
	next  atomic.Int32 // the lowest step no lane has claimed
	stop  atomic.Int32 // one past the lowest step known to activate k features
	lane  atomic.Int32 // solvers handed to goroutines so far
	wg    sync.WaitGroup
	steps [pathSteps]stepFit
}

// stepFit is one path step: its penalty and, once fitted, its model and work.
type stepFit struct {
	lambda                                  float64
	w                                       []float64
	b                                       float64
	iters, certified, exactChecks, screened int
}

// run is one lane: it claims steps in λ order and fits each, until the next
// unclaimed step is past stop. A fit that reaches k lowers stop to just
// past its step, which abandons every fit beyond it.
func (r *pathRun) run(f *solver) {
	f.quit = &r.stop
	for {
		i := r.next.Add(1) - 1
		if i >= r.stop.Load() {
			return
		}
		f.at, f.certified, f.exactChecks, f.screened = i, 0, 0, 0
		sf := &r.steps[i]
		b, iters, ok := f.fit(Options{Lambda: sf.lambda, MaxIter: 500, Tol: 1e-6})
		if !ok {
			return // i >= stop, and so is every step left to claim
		}
		sf.b, sf.iters, sf.certified, sf.exactChecks, sf.screened = b, iters, f.certified, f.exactChecks, f.screened
		copy(sf.w, f.w)
		active := 0
		for _, w := range f.w {
			if w != 0 {
				active++
			}
		}
		if active < r.k {
			continue
		}
		for s := r.stop.Load(); i+1 < s && !r.stop.CompareAndSwap(s, i+1); s = r.stop.Load() {
		}
	}
}
