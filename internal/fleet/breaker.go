package fleet

import (
	"errors"
	"time"

	"dcfp/internal/telemetry"
)

// ErrBreakerOpen is returned by ShipEpoch when the shard's circuit breaker is
// open: the coordinator has been unreachable for BreakerThreshold
// consecutive attempts and the cooldown has not yet elapsed, so the shard
// should keep the frame buffered locally instead of burning attempts
// against a link that is known down (errors.Is-matchable).
var ErrBreakerOpen = errors.New("fleet: circuit breaker open")

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a consecutive-failure circuit breaker with a half-open probe
// state, guarding the aggregator→coordinator link. Closed passes every
// attempt; threshold consecutive failures open it; after cooldown one probe
// is admitted (half-open) — success closes the breaker, failure re-opens it
// for another cooldown. It shares the owning Aggregator's single-goroutine
// discipline and is not safe for concurrent use. A nil breaker is disabled:
// every method is a no-op that allows all traffic.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	state    breakerState
	fails    int
	openedAt time.Time

	gauge *telemetry.Gauge   // dcfp_fleet_breaker_state: 0 closed, 1 open, 2 half-open
	opens *telemetry.Counter // dcfp_fleet_breaker_opens_total
}

func newBreaker(threshold int, cooldown time.Duration, r *telemetry.Registry) *breaker {
	b := &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
	if r != nil {
		b.gauge = r.Gauge("dcfp_fleet_breaker_state",
			"Shard circuit breaker state: 0 closed, 1 open, 2 half-open.")
		b.opens = r.Counter("dcfp_fleet_breaker_opens_total",
			"Times the shard circuit breaker opened after consecutive delivery failures.")
	}
	return b
}

func (b *breaker) setState(s breakerState) {
	b.state = s
	if b.gauge != nil {
		b.gauge.SetInt(int64(s))
	}
}

// allow reports whether an attempt may proceed, promoting an open breaker
// whose cooldown has elapsed to half-open (the caller's attempt is the
// probe).
func (b *breaker) allow() bool {
	if b == nil {
		return true
	}
	if b.state == breakerOpen {
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.setState(breakerHalfOpen)
	}
	return true
}

// success records a delivered frame (any decoded ack, throttles included —
// the link works; flow control is the coordinator's business).
func (b *breaker) success() {
	if b == nil {
		return
	}
	b.fails = 0
	if b.state != breakerClosed {
		b.setState(breakerClosed)
	}
}

// failure records a transport failure, opening the breaker when the
// consecutive-failure threshold is hit or a half-open probe dies.
func (b *breaker) failure() {
	if b == nil {
		return
	}
	b.fails++
	if b.state == breakerHalfOpen || b.fails >= b.threshold {
		b.openedAt = b.now()
		if b.state != breakerOpen {
			if b.opens != nil {
				b.opens.Inc()
			}
			b.setState(breakerOpen)
		}
	}
}
