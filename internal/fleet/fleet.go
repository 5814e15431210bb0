// Package fleet scales the fingerprinting pipeline past a single process
// with two-tier aggregation: per-shard aggregator processes each ingest a
// contiguous slice of the fleet's epoch matrix, run the liveness scan and
// the per-machine SLA check locally, and ship the reporting machines' cells
// by metric column, the masks and the partial SLA status to one coordinator,
// which filters each column into its metric's quantile estimator and keeps it
// as the epoch's retained samples, then runs summarization, SLA detection,
// fingerprinting, identification and forecast exactly as the single-node
// monitor does.
//
// The wire protocol is stdlib HTTP carrying versioned binary frames (gob
// metadata, the same codec family as the monitor checkpoints). Shard assignment is static
// with rebalance-on-death: a shard that stops shipping frames is merged
// around — its machines count as non-reporting, so a sizable dead shard
// pushes coverage under monitor.Config.MinCoverage and the existing
// degraded-epoch freeze applies unchanged — and after a configurable
// number of missed epochs its machine ranges are handed to the surviving
// shards.
//
// The quantile summary is a function of the epoch's value multiset and SLA
// counts are order-independent sums, so an N-shard fleet produces EpochReport
// and Advice streams byte-identical to feeding the same rows to a single
// monitor.ObserveEpoch loop.
package fleet

import (
	"fmt"
)

// Range is a half-open interval [Lo, Hi) of global machine indexes.
type Range struct {
	Lo, Hi int
}

// Len returns the number of machines in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Assignment maps the fleet's machine index space onto shards. Version
// increases on every rebalance so aggregators can detect a stale view; a
// shard whose Ranges entry is empty owns no machines (either the fleet is
// smaller than the shard count, or the shard was declared dead and its
// ranges moved to survivors).
type Assignment struct {
	Version  int
	Machines int
	Ranges   [][]Range
}

// StaticAssignment splits machines into shards contiguous near-equal
// slices: shard i owns [i*machines/shards, (i+1)*machines/shards).
func StaticAssignment(machines, shards int) (Assignment, error) {
	if machines <= 0 {
		return Assignment{}, fmt.Errorf("fleet: machines %d must be positive", machines)
	}
	if shards <= 0 {
		return Assignment{}, fmt.Errorf("fleet: shards %d must be positive", shards)
	}
	a := Assignment{Version: 1, Machines: machines, Ranges: make([][]Range, shards)}
	for i := 0; i < shards; i++ {
		r := Range{Lo: i * machines / shards, Hi: (i + 1) * machines / shards}
		if r.Len() > 0 {
			a.Ranges[i] = []Range{r}
		}
	}
	return a, nil
}

// Shards returns the shard count (dead or not).
func (a Assignment) Shards() int { return len(a.Ranges) }

// Owned returns how many machines shard s currently owns.
func (a Assignment) Owned(s int) int {
	n := 0
	for _, r := range a.Ranges[s] {
		n += r.Len()
	}
	return n
}

// Clone deep-copies the assignment.
func (a Assignment) Clone() Assignment {
	out := Assignment{Version: a.Version, Machines: a.Machines, Ranges: make([][]Range, len(a.Ranges))}
	for i, rs := range a.Ranges {
		if rs != nil {
			out.Ranges[i] = append([]Range(nil), rs...)
		}
	}
	return out
}

// Rebalance returns a new assignment (Version+1) with the dead shard's
// ranges redistributed over the live shards: each range goes, whole, to
// the live shard owning the fewest machines (ties to the lowest index).
// Live shards keep their existing ranges, so rebalancing never moves data
// between survivors. The receiver is unchanged.
func (a Assignment) Rebalance(dead int) (Assignment, error) {
	if dead < 0 || dead >= len(a.Ranges) {
		return Assignment{}, fmt.Errorf("fleet: dead shard %d out of %d", dead, len(a.Ranges))
	}
	out := a.Clone()
	out.Version++
	moved := out.Ranges[dead]
	out.Ranges[dead] = nil
	for _, r := range moved {
		best := -1
		for s := range out.Ranges {
			if s == dead || out.Ranges[s] == nil {
				continue
			}
			if best < 0 || out.Owned(s) < out.Owned(best) {
				best = s
			}
		}
		if best < 0 {
			return Assignment{}, fmt.Errorf("fleet: no live shard left to take over [%d,%d)", r.Lo, r.Hi)
		}
		out.Ranges[best] = append(out.Ranges[best], r)
	}
	return out, nil
}
