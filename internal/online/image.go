package online

import (
	"fmt"
	"slices"

	"dcfp/internal/core"
)

// Image returns s as a checkpoint encodes it: a shallow copy whose crises
// carry their audit records rebuilt whole, with the open crisis's samples in
// Samples and every ring slot holding its reporting machines only.
func (s *State) Image() *State {
	img := *s
	img.Crises = slices.Clone(s.Crises)
	for i := range img.Crises {
		img.Crises[i].Expl = s.explanations(&s.Crises[i])
	}
	if s.Open {
		img.Samples.X, img.Samples.Viol = s.fs.Block()
	}
	img.Ring = slices.Clone(s.Ring)
	for i := range img.Ring {
		if r := &img.Ring[i]; r.reporting < r.n {
			r.X, r.Viol = r.samples(s.cfg.Width, nil)
		}
	}
	return &img
}

// Restore validates img, a decoded checkpoint image, against s's
// configuration and makes it s's state. An invalid image leaves s unchanged.
// What the image does not hold starts empty: the fingerprint and threshold
// memos repopulate, and restored audit records stay whole.
func (s *State) Restore(img *State) error {
	if err := s.validate(img); err != nil {
		return err
	}
	img.cfg, img.fs, img.labels, img.labelIdx, img.thrMemo = s.cfg, core.SampleBuffer{}, nil, nil, thresholdMemo{}
	for i := range img.Crises {
		c := &img.Crises[i]
		c.id, c.memo, c.kept = CrisisID(i+1), core.FingerprintMemo{}, make([]keptExplanation, len(c.Expl))
		for j, e := range c.Expl {
			c.kept[j] = keptExplanation{e: e}
		}
		c.Expl = nil
	}
	if img.Open {
		// validate checked the one error, a block of another shape.
		_ = img.fs.AppendBlock(img.Samples.X, img.Samples.Viol)
		img.Samples = Retained{}
	}
	for i := range img.Ring {
		r := &img.Ring[i]
		r.n, r.reporting = len(r.Viol), len(r.Viol)
	}
	*s = *img
	return nil
}

// validate sanity-checks a decoded checkpoint image against s's
// configuration before it replaces any state.
func (s *State) validate(img *State) error {
	width := s.cfg.Width
	if img.Track == nil || img.Track.NumMetrics() != width {
		return fmt.Errorf("monitor: checkpoint has no quantile track %d metrics wide", width)
	}
	epochs := img.Track.NumEpochs()
	if len(img.InCrisis) != epochs || len(img.Degraded) != epochs {
		return fmt.Errorf("monitor: checkpoint flag lengths (%d, %d) disagree with %d tracked epochs",
			len(img.InCrisis), len(img.Degraded), epochs)
	}
	if th := img.Thresholds; th != nil && (len(th.Cold) != width || len(th.Hot) != width) {
		return fmt.Errorf("monitor: checkpoint thresholds width (%d, %d), catalog %d", len(th.Cold), len(th.Hot), width)
	}
	// Only an open crisis holds samples, and it is the newest record.
	if img.Open && len(img.Crises) == 0 || !img.Open && len(img.Samples.Viol) > 0 {
		return fmt.Errorf("monitor: checkpoint open %v with %d crises and %d samples", img.Open, len(img.Crises), len(img.Samples.Viol))
	}
	if len(img.Ring) != s.cfg.RawPad {
		return fmt.Errorf("monitor: checkpoint ring size %d, RawPad %d", len(img.Ring), s.cfg.RawPad)
	}
	if img.RingPos < 0 || img.RingPos >= s.cfg.RawPad {
		return fmt.Errorf("monitor: checkpoint ring position %d out of [0, %d)", img.RingPos, s.cfg.RawPad)
	}
	// Every sample block (a ring slot, the open crisis's samples) becomes a
	// block of one catalog-wide buffer, one violation flag per machine.
	for i, b := range append(img.Ring[:len(img.Ring):len(img.Ring)], img.Samples) {
		if len(b.X) != width*len(b.Viol) {
			return fmt.Errorf("monitor: checkpoint sample block %d holds %d values for %d machines, catalog %d",
				i, len(b.X), len(b.Viol), width)
		}
	}
	for i, c := range img.Crises {
		id, open := CrisisID(i+1), img.Open && i == len(img.Crises)-1
		// A stored crisis closed after it started and before the snapshot;
		// the open crisis is not stored yet.
		if p := c.State; p.Closed != -1 && (open || p.Closed < p.Start || int(p.Closed) >= epochs) {
			return fmt.Errorf("monitor: checkpoint crisis %s starts at %d, closed at %d, %d tracked epochs (open %v)",
				id, p.Start, p.Closed, epochs, open)
		}
		// Every relevant-set computation reads the ranking as catalog
		// columns; one outside the catalog would fail each of them.
		for _, j := range c.State.Top {
			if j < 0 || j >= width {
				return fmt.Errorf("monitor: checkpoint crisis %s ranks metric %d, catalog %d", id, j, width)
			}
		}
	}
	return nil
}
