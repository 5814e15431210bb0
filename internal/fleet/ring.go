package fleet

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"dcfp/internal/metrics"
	"dcfp/internal/telemetry"
)

// Ring is a shard's bounded, epoch-ordered replay buffer. Undelivered frames
// queue through coordinator outages; delivered ones are retained so a
// coordinator restarted from an older checkpoint can be re-fed everything
// past its restored watermark (Rewind). One capacity bounds both: overflow
// evicts delivered frames oldest-first, and only once none remain drops the
// oldest undelivered frame — lost work the coordinator will synthesize as a
// non-reporting shard, counted by Evicted. Replay after a restart therefore
// needs checkpoint age + outage length <= capacity. Not safe for concurrent
// use.
type Ring struct {
	cap              int
	frames           []ringFrame // ascending epoch
	pending, evicted int

	pendingG *telemetry.Gauge
	evictedC *telemetry.Counter
}

type ringFrame struct {
	epoch     metrics.Epoch
	data      []byte
	delivered bool
}

// NewRing builds a ring holding at most capacity frames (minimum 1),
// optionally exporting its depth and losses into reg.
func NewRing(capacity int, reg *telemetry.Registry) *Ring {
	return &Ring{
		cap: max(capacity, 1),
		pendingG: reg.Gauge("dcfp_fleet_replay_pending",
			"Undelivered frames queued in the aggregator's replay ring."),
		evictedC: reg.Counter("dcfp_fleet_replay_evicted_total",
			"Undelivered frames dropped from the replay ring by capacity pressure."),
	}
}

// Add queues epoch e's frame as undelivered; epochs must ascend.
func (r *Ring) Add(e metrics.Epoch, data []byte) {
	r.frames = append(r.frames, ringFrame{epoch: e, data: data})
	r.pending++
	if len(r.frames) > r.cap {
		i := slices.IndexFunc(r.frames, func(f ringFrame) bool { return f.delivered })
		if i < 0 {
			i = 0
			r.pending--
			r.evicted++
			r.evictedC.Inc()
		}
		r.frames = slices.Delete(r.frames, i, i+1)
	}
	r.pendingG.SetInt(int64(r.pending))
}

// Next returns the oldest undelivered frame.
func (r *Ring) Next() (metrics.Epoch, []byte, bool) {
	for _, f := range r.frames {
		if !f.delivered {
			return f.epoch, f.data, true
		}
	}
	return 0, nil, false
}

// Ack marks epoch e's frame delivered, in any order; the frame stays
// retained for Rewind. Unknown (evicted) and already-delivered epochs are
// ignored.
func (r *Ring) Ack(e metrics.Epoch) {
	i := sort.Search(len(r.frames), func(i int) bool { return r.frames[i].epoch >= e })
	if i < len(r.frames) && r.frames[i].epoch == e && !r.frames[i].delivered {
		r.frames[i].delivered = true
		r.pending--
		r.pendingG.SetInt(int64(r.pending))
	}
}

// Rewind marks every retained frame at or past epoch from undelivered again
// and returns how many delivered frames that re-queued.
func (r *Ring) Rewind(from metrics.Epoch) int {
	n := 0
	for i := len(r.frames) - 1; i >= 0 && r.frames[i].epoch >= from; i-- {
		if r.frames[i].delivered {
			r.frames[i].delivered = false
			n++
		}
	}
	r.pending += n
	r.pendingG.SetInt(int64(r.pending))
	return n
}

// Pending is the number of undelivered frames.
func (r *Ring) Pending() int { return r.pending }

// Evicted is the number of undelivered frames lost to capacity pressure.
func (r *Ring) Evicted() int { return r.evicted }

// Drain ships ring's undelivered frames oldest first through ShipEpoch until
// none remain or the link degrades, and returns how many were acked.
// Transport failures (an open breaker included) and throttle acks past the
// ship deadline leave the frame queued for the next call: a coordinator
// outage costs latency, not epochs. An ack whose watermark is below the last
// one seen means the coordinator restarted from an older checkpoint, so the
// ring is rewound to it. The error is non-nil only for a deliberate
// rejection (declared dead, geometry or frame-version mismatch, a frame over
// the coordinator's size cap), which no retry can cure. logf receives the
// operational narration.
func (g *Aggregator) Drain(ctx context.Context, ring *Ring, logf func(format string, args ...any)) (int, error) {
	shipped := 0
	for {
		e, data, ok := ring.Next()
		if !ok {
			return shipped, nil
		}
		ack, err := g.ShipEpoch(ctx, e, data)
		if err != nil {
			if !errors.Is(err, context.Canceled) && ctx.Err() == nil {
				logf("buffering epoch %d (%d frames pending): %v", e, ring.Pending(), err)
			}
			return shipped, nil
		}
		if !ack.OK && !ack.Throttle {
			// Checked first: a refusal to decode carries no watermark.
			return shipped, fmt.Errorf("fleet: coordinator rejected epoch %d: %s", e, ack.Error)
		}
		if ack.Watermark < g.watermark {
			if n := ring.Rewind(ack.Watermark); n > 0 {
				logf("coordinator watermark regressed %d -> %d: re-shipping %d frames",
					g.watermark, ack.Watermark, n)
			}
			g.watermark = ack.Watermark
			continue
		}
		g.watermark = ack.Watermark
		if ack.Throttle {
			return shipped, nil
		}
		ring.Ack(e)
		shipped++
	}
}
