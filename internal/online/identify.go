package online

import (
	"errors"
	"slices"
	"sort"

	"dcfp/internal/core"
	"dcfp/internal/ident"
	"dcfp/internal/metrics"
)

// keptExplanation is one identification audit record as its crisis keeps it.
// A record compares the ongoing fingerprint with every labelled crisis, so
// whole records grow with the square of the crisis count (explainTopK
// contributions per candidate). A record identify built keeps instead what
// its candidates are a pure function of — the fingerprinter, the ongoing
// fingerprint, and each candidate's index in Crises and label at the time —
// and explanation recomputes them: a stored crisis's window never changes,
// so the rebuilt record is the emitted one bit for bit. A record restored
// from a checkpoint stays whole (f == nil).
type keptExplanation struct {
	e     *ident.Explanation  // without Candidates unless f == nil
	f     *core.Fingerprinter // untagged, so rebuilding bypasses the memos
	part  []float64
	cands []keptCandidate // nearest first
}

// keptCandidate is one candidate of a kept record: its index in Crises and
// its label at the time, as an index into State.labels. The lists grow with
// the square of the crisis count, so a candidate costs 8 bytes.
type keptCandidate struct{ past, label int32 }

// explanation returns kept with its candidates.
func (s *State) explanation(kept keptExplanation) *ident.Explanation {
	if kept.f == nil {
		return kept.e
	}
	e := *kept.e
	if len(kept.cands) > 0 {
		e.Candidates = make([]core.CandidateExplanation, len(kept.cands))
		for i, c := range kept.cands {
			// identify ran these on the same windows, so they cannot fail.
			p := &s.Crises[c.past]
			fp, _, _ := kept.f.StoredFingerprint(&p.memo, s.Track, p.State.Start, SummaryRange, p.State.Closed)
			exp, _ := kept.f.ExplainDistance(kept.part, fp, explainTopK)
			exp.CrisisID, exp.Label = p.id, s.labels[c.label]
			e.Candidates[i] = exp
		}
	}
	return &e
}

// explanations rebuilds the audit records of p.
func (s *State) explanations(p *Crisis) []*ident.Explanation {
	out := make([]*ident.Explanation, 0, len(p.kept))
	for _, k := range p.kept {
		out = append(out, s.explanation(k))
	}
	return out
}

// Fingerprinter assembles the fingerprinter from the latest thresholds and
// the relevant metrics of the most recent crises.
func (s *State) Fingerprinter() (*core.Fingerprinter, error) {
	if s.Thresholds == nil {
		return nil, errors.New("monitor: thresholds not yet established")
	}
	var rankings [][]int
	for i := len(s.Crises) - 1; i >= 0 && len(rankings) < crisisPool; i-- {
		if s.Crises[i].State.Top != nil {
			rankings = append(rankings, s.Crises[i].State.Top)
		}
	}
	// No crisis history yet: fall back to the all-metrics fingerprint until
	// the first crisis's feature selection lands. NewFingerprinter sorts the
	// relevant set: fingerprints are laid out in column order, whatever
	// order MostFrequent ranks the metrics in.
	relevant := core.AllMetrics(s.cfg.Width)
	if len(rankings) > 0 {
		relevant = core.MostFrequent(rankings, s.cfg.Selection.NumRelevant)
	}
	f, err := core.NewFingerprinter(s.Thresholds, relevant)
	if err != nil {
		return nil, err
	}
	// Tagging the fingerprinter with the thresholds generation lets each
	// stored crisis memoize its fingerprint within one (thresholds,
	// relevant-set) window; see core.FingerprintMemo.
	f.SetGeneration(s.ThGen)
	return f, nil
}

// identify performs the per-epoch identification of the open crisis p; e is
// the epoch being observed, k the 0-based identification epoch. Alongside
// the Advice it builds the full audit Explanation: the decision below reads
// its nearest distance from the explanation's own candidate records, so the
// audit trail can never disagree with the decision it explains.
func (s *State) identify(p *Crisis, e metrics.Epoch, k int, h Hook, res *Result) *Advice {
	h.Begin("identify")
	defer h.End("identify")
	f, err := s.Fingerprinter()
	if err != nil {
		return nil
	}
	h.Begin("fingerprint")
	part, err := f.CrisisFingerprintUpTo(s.Track, p.State.Start, SummaryRange, e)
	h.End("fingerprint")
	if err != nil {
		return nil
	}
	expl := &ident.Explanation{
		CrisisID:   p.id,
		Epoch:      e,
		IdentEpoch: k,
		Generation: f.Generation(),
		Relevant:   append([]int(nil), f.Relevant()...),
		Alpha:      s.cfg.Alpha,
		Emitted:    ident.Unknown,
	}
	h.Begin("match")
	// Each labeled stored crisis is compared through ExplainDistance, which
	// accumulates the squared distance in the same element order as
	// core.Distance — the decision value and its breakdown are one
	// computation. Its fingerprint is read through the same function as the
	// ongoing crisis's, over the window it closed with.
	var cands []identCandidate
	for j := range s.Crises {
		c := &s.Crises[j]
		if c.State.Closed < 0 || c.State.Label == "" {
			continue
		}
		fp, hit, err := f.StoredFingerprint(&c.memo, s.Track, c.State.Start, SummaryRange, c.State.Closed)
		if err != nil {
			continue
		}
		if hit {
			res.Hits++
		} else {
			res.Misses++
		}
		exp, err := f.ExplainDistance(part, fp, explainTopK)
		if err != nil {
			continue
		}
		exp.CrisisID, exp.Label = c.id, c.State.Label
		cands = append(cands, identCandidate{exp: exp, fp: fp, past: j})
	}
	adv := &Advice{
		CrisisID:   p.id,
		Epoch:      e,
		IdentEpoch: k,
		Candidates: len(cands),
		Emitted:    ident.Unknown,
	}
	var kept []keptCandidate
	if len(cands) > 0 {
		thr := s.thrMemo.threshold(f, cands, s.cfg.Alpha)
		// Nearest first; stable sort keeps storage order on ties, matching
		// the previous strictly-less scan.
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].exp.Distance < cands[j].exp.Distance })
		best := cands[0].exp
		adv.Nearest = best.Label
		adv.Distance = best.Distance
		adv.Threshold = thr
		expl.Threshold = thr
		if best.Distance < thr {
			adv.Emitted = best.Label
		}
		expl.Candidates = make([]core.CandidateExplanation, len(cands))
		kept = make([]keptCandidate, len(cands))
		for i, c := range cands {
			expl.Candidates[i] = c.exp
			kept[i] = keptCandidate{int32(c.past), s.labelRef(c.exp.Label)}
		}
	}
	h.End("match")
	h.Begin("advise")
	expl.Emitted = adv.Emitted
	p.State.Votes = append(p.State.Votes, adv.Emitted)
	expl.Votes = append([]string(nil), p.State.Votes...)
	expl.Stable = ident.IsStable(p.State.Votes)
	adv.Explanation = expl
	head, untagged := *expl, *f
	head.Candidates = nil
	untagged.SetGeneration(0)
	p.kept = append(p.kept, keptExplanation{e: &head, f: &untagged, part: part, cands: kept})
	h.End("advise")
	return adv
}

// labelRef returns label's index in s.labels, interning it on first use.
func (s *State) labelRef(label string) int32 {
	i, ok := s.labelIdx[label]
	if !ok {
		if s.labelIdx == nil {
			s.labelIdx = map[string]int32{}
		}
		i = int32(len(s.labels))
		s.labels = append(s.labels, label)
		s.labelIdx[label] = i
	}
	return i
}

// identCandidate is one labeled stored crisis identify compares against.
type identCandidate struct {
	exp  core.CandidateExplanation
	fp   []float64
	past int // index in State.Crises
}

// thresholdMemo remembers identify's threshold, §5.3's OnlineThreshold over
// the labeled candidates' pairwise fingerprint distances. Those are a
// function of the thresholds generation, the relevant set and the ordered
// candidate (crisis ID, label) list, which stay put across most of a
// crisis's advice epochs. A cache: never checkpointed, cleared on restore.
type thresholdMemo struct {
	gen      uint64
	relevant []int
	keys     []string // crisis ID, label, crisis ID, label, … in candidate order
	thr      float64
}

// threshold returns the identification threshold over cands under f,
// recomputing it only when the key differs from the remembered one.
func (c *thresholdMemo) threshold(f *core.Fingerprinter, cands []identCandidate, alpha float64) float64 {
	hit := c.keys != nil && c.gen == f.Generation() && slices.Equal(c.relevant, f.Relevant()) && len(c.keys) == 2*len(cands)
	for i := 0; hit && i < len(cands); i++ {
		hit = c.keys[2*i] == cands[i].exp.CrisisID && c.keys[2*i+1] == cands[i].exp.Label
	}
	if hit {
		return c.thr
	}
	var pairs []core.LabeledPair
	for a := 0; a < len(cands); a++ {
		for b := a + 1; b < len(cands); b++ {
			d, err := core.Distance(cands[a].fp, cands[b].fp)
			if err != nil {
				continue
			}
			pairs = append(pairs, core.LabeledPair{Distance: d, Same: cands[a].exp.Label == cands[b].exp.Label})
		}
	}
	thr, err := core.OnlineThreshold(pairs, alpha)
	if err != nil {
		thr = 0 // fewer than two labeled crises: everything is unknown
	}
	c.gen, c.relevant, c.keys, c.thr = f.Generation(), append(c.relevant[:0], f.Relevant()...), c.keys[:0], thr
	for _, cd := range cands {
		c.keys = append(c.keys, cd.exp.CrisisID, cd.exp.Label)
	}
	return thr
}
