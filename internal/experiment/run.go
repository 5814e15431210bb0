package experiment

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dcfp/internal/core"
	"dcfp/internal/crisis"
	"dcfp/internal/ident"
)

// Setting selects one of the paper's three evaluation regimes (§4.4).
type Setting int

// The three settings: offline assumes perfect future knowledge of all
// parameters; quasi-online estimates thresholds and relevant metrics
// online but keeps the perfect-knowledge identification threshold; online
// estimates everything online.
const (
	SettingOffline Setting = iota
	SettingQuasiOnline
	SettingOnline
)

// String names the setting.
func (s Setting) String() string {
	switch s {
	case SettingOffline:
		return "offline"
	case SettingQuasiOnline:
		return "quasi-online"
	case SettingOnline:
		return "online"
	default:
		return fmt.Sprintf("Setting(%d)", int(s))
	}
}

// RunConfig shapes an identification experiment over a tensor.
type RunConfig struct {
	Setting Setting
	// SeedSize is the number of crises the store is bootstrapped with
	// (5 in the offline protocol, 2 quasi-online, 2 or 10 online).
	SeedSize int
	// Runs is the number of repetitions: the offline protocol redraws
	// the seed set each run; the online protocols permute the crisis
	// presentation order (run 0 is always chronological).
	Runs int
	// Alphas is the false-positive-budget grid to sweep.
	Alphas []float64
	// Seed drives the (reproducible) randomization.
	Seed int64
}

// DefaultAlphas is the α grid used in the accuracy-vs-α figures.
func DefaultAlphas() []float64 {
	out := make([]float64, 0, 21)
	for a := 0.0; a <= 1.0001; a += 0.05 {
		out = append(out, math.Round(a*100)/100)
	}
	return out
}

// OfflineRunConfig is the §5.1.2 protocol: five runs, each seeding the
// store with five labeled crises (two random Bs, one A, two others) and
// identifying the remaining fourteen without growing the store.
func OfflineRunConfig(seed int64) RunConfig {
	return RunConfig{Setting: SettingOffline, SeedSize: 5, Runs: 5, Alphas: DefaultAlphas(), Seed: seed}
}

// QuasiOnlineRunConfig is the §5.2 protocol: chronological presentation
// plus 20 random permutations, seeded with the first two crises.
func QuasiOnlineRunConfig(seed int64) RunConfig {
	return RunConfig{Setting: SettingQuasiOnline, SeedSize: 2, Runs: 21, Alphas: DefaultAlphas(), Seed: seed}
}

// OnlineRunConfig is the §5.3 protocol with the given bootstrap size
// (the paper runs 41 permutations for bootstrap 10, 21 for bootstrap 2).
func OnlineRunConfig(seed int64, bootstrap int) RunConfig {
	runs := 21
	if bootstrap >= 10 {
		runs = 41
	}
	return RunConfig{Setting: SettingOnline, SeedSize: bootstrap, Runs: runs, Alphas: DefaultAlphas(), Seed: seed}
}

// IdentSeries is the accuracy-vs-α result of one experiment — the data
// behind Figures 4, 5, 6 and 8.
type IdentSeries struct {
	Method  string
	Setting Setting
	Alphas  []float64
	// Known[i] and Unknown[i] are the identification accuracies at
	// Alphas[i]; MeanTTIMinutes[i] the mean time to identification of
	// correctly identified known crises (NaN when none).
	Known          []float64
	Unknown        []float64
	MeanTTIMinutes []float64
}

// Crossing returns the operating point where the known and unknown
// accuracy curves are closest — the point the paper reports in Table 2 —
// preferring, among ties, the higher accuracies.
func (s IdentSeries) Crossing() (alpha, known, unknown float64) {
	best := -1
	bestGap := math.Inf(1)
	bestLevel := math.Inf(-1)
	for i := range s.Alphas {
		gap := math.Abs(s.Known[i] - s.Unknown[i])
		level := math.Min(s.Known[i], s.Unknown[i])
		if gap < bestGap-1e-9 || (math.Abs(gap-bestGap) <= 1e-9 && level > bestLevel) {
			best, bestGap, bestLevel = i, gap, level
		}
	}
	if best < 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	return s.Alphas[best], s.Known[best], s.Unknown[best]
}

// RunIdentification executes the identification protocol over a
// precomputed tensor.
func RunIdentification(t *Tensor, cfg RunConfig) (IdentSeries, error) {
	n := len(t.Crises)
	if n < 3 {
		return IdentSeries{}, errors.New("experiment: too few crises")
	}
	if cfg.SeedSize < 1 || cfg.SeedSize >= n {
		return IdentSeries{}, fmt.Errorf("experiment: seed size %d out of [1, %d)", cfg.SeedSize, n)
	}
	if cfg.Runs < 1 {
		return IdentSeries{}, errors.New("experiment: need at least one run")
	}
	if len(cfg.Alphas) == 0 {
		return IdentSeries{}, errors.New("experiment: empty alpha grid")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Pre-draw the per-run seed sets / presentation orders so every alpha
	// evaluates the same randomization.
	type runPlan struct {
		store []int // initial store (crisis indices)
		order []int // identification order
		grow  bool
	}
	plans := make([]runPlan, cfg.Runs)
	for r := range plans {
		switch cfg.Setting {
		case SettingOffline:
			store := offlineSeed(t, cfg.SeedSize, rng)
			var order []int
			inStore := map[int]bool{}
			for _, i := range store {
				inStore[i] = true
			}
			for i := 0; i < n; i++ {
				if !inStore[i] {
					order = append(order, i)
				}
			}
			plans[r] = runPlan{store: store, order: order, grow: false}
		default:
			perm := chronoOrPermuted(n, r, rng)
			plans[r] = runPlan{store: perm[:cfg.SeedSize], order: perm[cfg.SeedSize:], grow: true}
		}
	}

	// Full-knowledge ROC pairs (offline / quasi-online threshold source).
	fullPairs := pairList(t, nil)

	out := IdentSeries{
		Method:         t.Method,
		Setting:        cfg.Setting,
		Alphas:         append([]float64(nil), cfg.Alphas...),
		Known:          make([]float64, len(cfg.Alphas)),
		Unknown:        make([]float64, len(cfg.Alphas)),
		MeanTTIMinutes: make([]float64, len(cfg.Alphas)),
	}
	for ai, alpha := range cfg.Alphas {
		var cases []ident.Case
		for _, plan := range plans {
			store := append([]int(nil), plan.store...)
			var offlineThr float64
			if cfg.Setting != SettingOnline {
				thr, err := core.OfflineThreshold(fullPairs, alpha)
				if err != nil {
					return IdentSeries{}, err
				}
				offlineThr = thr
			}
			for _, c := range plan.order {
				thr := offlineThr
				if cfg.Setting == SettingOnline {
					var err error
					thr, err = core.OnlineThreshold(pairList(t, store), alpha)
					if err != nil {
						thr = 0 // no past pairs: everything is unknown
					}
				}
				cases = append(cases, identifyOne(t, c, store, thr))
				if plan.grow {
					store = append(store, c)
				}
			}
		}
		sum, err := ident.Summarize(cases)
		if err != nil {
			return IdentSeries{}, err
		}
		out.Known[ai] = sum.KnownAccuracy
		out.Unknown[ai] = sum.UnknownAccuracy
		if sum.MeanTTI > 0 {
			out.MeanTTIMinutes[ai] = sum.MeanTTI.Minutes()
		} else {
			out.MeanTTIMinutes[ai] = math.NaN()
		}
	}
	return out, nil
}

// identifyOne runs the five-epoch identification of crisis c against the
// store and packages it as an evaluation case.
func identifyOne(t *Tensor, c int, store []int, thr float64) ident.Case {
	truth := t.Label(c)
	known := false
	for _, x := range store {
		if t.Crises[x].Instance.Type == t.Crises[c].Instance.Type {
			known = true
			break
		}
	}
	obs := make([]ident.Observation, ident.IdentificationEpochs)
	for k := range obs {
		best := math.Inf(1)
		label := ""
		for _, x := range store {
			if d := t.Partial[c][k][x]; d < best {
				best = d
				label = t.Label(x)
			}
		}
		obs[k] = ident.Observation{Label: label, Distance: best}
	}
	return ident.Case{Seq: ident.Identify(obs, thr), Truth: truth, Known: known}
}

// pairList converts (a subset of) the tensor's full distance matrix into
// labeled pairs. A nil subset means all crises.
func pairList(t *Tensor, subset []int) []core.LabeledPair {
	idx := subset
	if idx == nil {
		idx = make([]int, len(t.Crises))
		for i := range idx {
			idx[i] = i
		}
	}
	var pairs []core.LabeledPair
	for a := 0; a < len(idx); a++ {
		for b := a + 1; b < len(idx); b++ {
			i, j := idx[a], idx[b]
			pairs = append(pairs, core.LabeledPair{
				Distance: t.Full[i][j],
				Same:     t.Crises[i].Instance.Type == t.Crises[j].Instance.Type,
			})
		}
	}
	return pairs
}

// offlineSeed draws the §5.1.2 initial set: two random type-B crises, one
// type A, and two other crises. Falls back to uniform sampling when the
// trace lacks those types.
func offlineSeed(t *Tensor, size int, rng *rand.Rand) []int {
	byType := map[crisis.Type][]int{}
	for i, dc := range t.Crises {
		byType[dc.Instance.Type] = append(byType[dc.Instance.Type], i)
	}
	var seed []int
	taken := map[int]bool{}
	take := func(cands []int, n int) {
		perm := rng.Perm(len(cands))
		for _, p := range perm {
			if n == 0 {
				break
			}
			if !taken[cands[p]] {
				seed = append(seed, cands[p])
				taken[cands[p]] = true
				n--
			}
		}
	}
	take(byType[crisis.TypeB], 2)
	take(byType[crisis.TypeA], 1)
	var rest []int
	for i := range t.Crises {
		if !taken[i] {
			rest = append(rest, i)
		}
	}
	take(rest, size-len(seed))
	return seed
}

// chronoOrPermuted returns the chronological order for run 0 and a random
// permutation otherwise.
func chronoOrPermuted(n, run int, rng *rand.Rand) []int {
	if run == 0 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return rng.Perm(n)
}
