// Package ident implements the identification protocol and evaluation
// criteria of §4.3.
//
// Identification runs once per epoch for the first five epochs of a
// detected crisis. Each run either emits the label of the nearest past
// crisis (if its fingerprint distance is below the identification
// threshold) or the "don't know" label x. A sequence is *stable* when it
// consists of zero or more x's followed by zero or more identical labels;
// only stable sequences can count as accurate, and mislabeling a known
// crisis or labeling an unknown one are both errors — deliberately stricter
// than the top-k retrieval criterion of the signatures work.
package ident

import (
	"errors"
	"fmt"
	"time"

	"dcfp/internal/metrics"
)

// Unknown is the "don't know" label x.
const Unknown = "x"

// IdentificationEpochs is how many consecutive epochs identification is
// attempted, starting at crisis detection (§4.3: five).
const IdentificationEpochs = 5

// Verdict values classifying an emitted label for telemetry and event
// streams: "known" when a concrete past-crisis label was emitted, "unknown"
// for the don't-know label x (or no label at all).
const (
	VerdictKnown   = "known"
	VerdictUnknown = "unknown"
)

// Verdict classifies an emitted identification label.
func Verdict(label string) string {
	if label == "" || label == Unknown {
		return VerdictUnknown
	}
	return VerdictKnown
}

// Observation is the nearest-past-crisis match at one identification epoch.
type Observation struct {
	// Label of the nearest past crisis ("" when there are none).
	Label string
	// Distance to that crisis's fingerprint (+Inf when none).
	Distance float64
}

// Identify converts per-epoch observations into emitted labels: the nearest
// label when the distance is below threshold, otherwise Unknown. A nearest
// crisis that exists but is itself undiagnosed emits Unknown too — matching
// an unlabeled crisis tells the operator nothing actionable.
func Identify(obs []Observation, threshold float64) []string {
	out := make([]string, len(obs))
	for i, o := range obs {
		if o.Label != "" && o.Label != Unknown && o.Distance < threshold {
			out[i] = o.Label
		} else {
			out[i] = Unknown
		}
	}
	return out
}

// IsStable reports whether seq is zero or more x's followed by zero or more
// identical non-x labels: xxAAA, BBBBB and xxxxx are stable; xxAxA, xxAAB
// and AAAAB are not.
func IsStable(seq []string) bool {
	i := 0
	for i < len(seq) && seq[i] == Unknown {
		i++
	}
	if i == len(seq) {
		return true
	}
	first := seq[i]
	for ; i < len(seq); i++ {
		if seq[i] != first {
			return false
		}
	}
	return true
}

// Case is one identification experiment: the emitted sequence, the
// ground-truth label, and whether the crisis was known (an identical
// crisis existed in the store) at identification time.
type Case struct {
	Seq   []string
	Truth string
	Known bool
}

// Outcome scores one case.
type Outcome struct {
	Stable bool `json:"stable"`
	// Emitted is the stable sequence's label (Unknown if all x's or the
	// sequence is unstable).
	Emitted string `json:"emitted"`
	// Correct: for a known crisis, stable and labeled exactly right; for
	// an unknown crisis, all five epochs said x.
	Correct bool `json:"correct"`
	// TTI is the time from the first identification epoch to the first
	// epoch emitting the correct label; meaningful only for correct
	// known cases. -1 otherwise.
	TTIEpochs int `json:"tti_epochs"`
}

// Evaluate applies the accuracy definitions of §4.3 to one case.
func Evaluate(c Case) Outcome {
	o := Outcome{Stable: IsStable(c.Seq), Emitted: Unknown, TTIEpochs: -1}
	if len(c.Seq) == 0 {
		return o
	}
	if o.Stable {
		if last := c.Seq[len(c.Seq)-1]; last != Unknown {
			o.Emitted = last
		}
	}
	if c.Known {
		o.Correct = o.Stable && o.Emitted == c.Truth && c.Truth != Unknown
		if o.Correct {
			for k, l := range c.Seq {
				if l == c.Truth {
					o.TTIEpochs = k
					break
				}
			}
		}
		return o
	}
	// Unknown crisis: accurate only if never labeled.
	o.Correct = true
	for _, l := range c.Seq {
		if l != Unknown {
			o.Correct = false
			break
		}
	}
	return o
}

// Summary aggregates cases into the paper's headline numbers.
type Summary struct {
	// KnownAccuracy is the fraction of known crises identified by a
	// stable, exactly-correct sequence.
	KnownAccuracy float64
	// UnknownAccuracy is the fraction of unknown crises that stayed
	// unlabeled through all identification epochs.
	UnknownAccuracy float64
	// MeanTTI is the average time to identification over correct known
	// cases.
	MeanTTI time.Duration
	// KnownTotal and UnknownTotal count the cases of each kind.
	KnownTotal, UnknownTotal int
}

// Summarize evaluates and aggregates a batch of cases.
func Summarize(cases []Case) (Summary, error) {
	if len(cases) == 0 {
		return Summary{}, errors.New("ident: no cases to summarize")
	}
	var s Summary
	knownOK, unknownOK := 0, 0
	ttiSum := 0
	ttiN := 0
	for _, c := range cases {
		o := Evaluate(c)
		if c.Known {
			s.KnownTotal++
			if o.Correct {
				knownOK++
				ttiSum += o.TTIEpochs
				ttiN++
			}
		} else {
			s.UnknownTotal++
			if o.Correct {
				unknownOK++
			}
		}
	}
	if s.KnownTotal > 0 {
		s.KnownAccuracy = float64(knownOK) / float64(s.KnownTotal)
	}
	if s.UnknownTotal > 0 {
		s.UnknownAccuracy = float64(unknownOK) / float64(s.UnknownTotal)
	}
	if ttiN > 0 {
		s.MeanTTI = time.Duration(ttiSum) * metrics.EpochDuration / time.Duration(ttiN)
	}
	return s, nil
}

// String formats a summary the way the paper's tables read.
func (s Summary) String() string {
	return fmt.Sprintf("known %.1f%% (n=%d), unknown %.1f%% (n=%d), mean TTI %s",
		100*s.KnownAccuracy, s.KnownTotal, 100*s.UnknownAccuracy, s.UnknownTotal, s.MeanTTI)
}
