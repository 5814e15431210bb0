package fleet

import (
	"cmp"
	"fmt"
	"math/rand"

	"dcfp/internal/telemetry"
)

// LinkFaultConfig parameterizes a seeded transport fault injector on the
// aggregator→coordinator path. All rates are per delivery attempt in [0,1];
// a frame that is dropped (or cut off by a partition) stays queued on the
// sender and is re-attempted on the next step, re-rolling every fault — so
// loss delays delivery rather than silently erasing epochs, exactly like an
// aggregator retrying into a lossy network.
type LinkFaultConfig struct {
	// Seed makes the fault sequence reproducible.
	Seed int64
	// DropRate loses the attempt entirely (no delivery, sender retries).
	DropRate float64
	// DupRate delivers the frame twice (the second copy lands stale).
	DupRate float64
	// DelayRate holds the delivery for 1..MaxDelaySteps steps, reordering
	// it past frames sent later.
	DelayRate float64
	// MaxDelaySteps bounds the per-delivery delay (default 2).
	MaxDelaySteps int
	// CorruptRate delivers a bit-flipped copy instead of the frame; the
	// codec checksum must reject it, and the sender retries the original.
	CorruptRate float64
	// TruncateRate delivers a truncated copy instead of the frame.
	TruncateRate float64
	// Telemetry optionally receives dcfp_fleet_fault_injected_total.
	Telemetry *telemetry.Registry
}

func (c LinkFaultConfig) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"DropRate", c.DropRate}, {"DupRate", c.DupRate}, {"DelayRate", c.DelayRate},
		{"CorruptRate", c.CorruptRate}, {"TruncateRate", c.TruncateRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fleet: %s %v outside [0,1]", r.name, r.v)
		}
	}
	if c.MaxDelaySteps < 0 {
		return fmt.Errorf("fleet: MaxDelaySteps %d negative", c.MaxDelaySteps)
	}
	return nil
}

// Delivery is one planned arrival of (possibly a damaged copy of) a frame.
type Delivery struct {
	// Frame is the bytes that arrive. Mutated deliveries carry a damaged
	// copy; the original stays queued on the sender.
	Frame []byte
	// DelaySteps is how many steps after the send the frame lands
	// (0 = this step).
	DelaySteps int
	// Mutated marks a corrupt or truncated copy: its arrival must be
	// rejected by codec validation and does not count as delivery.
	Mutated bool
}

// allShards is the Partition target meaning every shard at once.
const allShards = -1

// LinkFaults is a seeded, composable transport fault injector: random
// drop/duplicate/delay/corrupt/truncate faults, full partitions with a
// configurable heal step, and per-shard slow-link latency distributions.
// The chaos harness (and the dcfpd fault hook) asks it to Plan each
// delivery attempt; it is not safe for concurrent use.
type LinkFaults struct {
	cfg LinkFaultConfig
	rng *rand.Rand

	partUntil map[int]int     // shard (or allShards) → first step the link works again
	slowMean  map[int]float64 // shard → mean extra delay in steps

	injected map[string]*telemetry.Counter
}

// NewLinkFaults validates the config and seeds the injector.
func NewLinkFaults(cfg LinkFaultConfig) (*LinkFaults, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.MaxDelaySteps = cmp.Or(cfg.MaxDelaySteps, 2)
	l := &LinkFaults{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		partUntil: make(map[int]int),
		slowMean:  make(map[int]float64),
	}
	if r := cfg.Telemetry; r != nil {
		l.injected = map[string]*telemetry.Counter{}
		for _, f := range []string{"drop", "dup", "delay", "corrupt", "truncate", "partition", "slow"} {
			l.injected[f] = r.Counter("dcfp_fleet_fault_injected_total",
				"Transport faults injected on the aggregator→coordinator path.",
				telemetry.Label{Key: "fault", Value: f})
		}
	}
	return l, nil
}

func (l *LinkFaults) count(fault string) {
	if l.injected != nil {
		l.injected[fault].Inc()
	}
}

// Partition severs the link for shard (allShards = every shard) until step
// until: every delivery attempt before then is lost. The queue-and-retry
// contract means the backlog replays after the heal.
func (l *LinkFaults) Partition(shard, until int) {
	if cur, ok := l.partUntil[shard]; !ok || until > cur {
		l.partUntil[shard] = until
	}
}

// SetSlow gives shard's link an exponential extra delay with the given mean
// (in steps); mean <= 0 restores a fast link.
func (l *LinkFaults) SetSlow(shard int, mean float64) {
	if mean <= 0 {
		delete(l.slowMean, shard)
		return
	}
	l.slowMean[shard] = mean
}

// Partitioned reports whether shard's link is severed at step.
func (l *LinkFaults) Partitioned(shard, step int) bool {
	if l == nil {
		return false
	}
	if until, ok := l.partUntil[allShards]; ok && step < until {
		return true
	}
	until, ok := l.partUntil[shard]
	return ok && step < until
}

// Plan decides the fate of one delivery attempt of frame from shard at
// step. An empty result means the attempt was lost (partition or drop) —
// the sender keeps the frame queued and retries. Otherwise each Delivery
// arrives DelaySteps later; Mutated copies must be rejected by the codec
// while the original stays queued.
func (l *LinkFaults) Plan(shard, step int, frame []byte) []Delivery {
	if l == nil {
		return []Delivery{{Frame: frame}}
	}
	if l.Partitioned(shard, step) {
		l.count("partition")
		return nil
	}
	// One uniform draw per fault class per attempt, in fixed order, keeps
	// the sequence reproducible regardless of which faults are enabled.
	drop := l.rng.Float64() < l.cfg.DropRate
	dup := l.rng.Float64() < l.cfg.DupRate
	delay := 0
	if l.rng.Float64() < l.cfg.DelayRate {
		delay = 1 + l.rng.Intn(l.cfg.MaxDelaySteps)
	}
	corrupt := l.rng.Float64() < l.cfg.CorruptRate
	truncate := l.rng.Float64() < l.cfg.TruncateRate
	if mean, ok := l.slowMean[shard]; ok {
		extra := int(l.rng.ExpFloat64() * mean)
		if extra > 0 {
			l.count("slow")
			delay += extra
		}
	}

	switch {
	case drop:
		l.count("drop")
		return nil
	case corrupt:
		l.count("corrupt")
		return []Delivery{{Frame: l.corruptCopy(frame), DelaySteps: delay, Mutated: true}}
	case truncate:
		l.count("truncate")
		return []Delivery{{Frame: frame[:l.rng.Intn(len(frame))], DelaySteps: delay, Mutated: true}}
	}
	if delay > 0 {
		l.count("delay")
	}
	out := []Delivery{{Frame: frame, DelaySteps: delay}}
	if dup {
		l.count("dup")
		out = append(out, Delivery{Frame: frame, DelaySteps: delay})
	}
	return out
}

// corruptCopy flips a handful of payload bits past the header, so the
// damage is caught by the checksum (not the cheaper magic/version checks).
func (l *LinkFaults) corruptCopy(frame []byte) []byte {
	cp := append([]byte(nil), frame...)
	if len(cp) <= headerLen {
		if len(cp) > 0 {
			cp[l.rng.Intn(len(cp))] ^= 0xFF
		}
		return cp
	}
	for i, n := 0, 1+l.rng.Intn(4); i < n; i++ {
		pos := headerLen + l.rng.Intn(len(cp)-headerLen)
		cp[pos] ^= byte(1 << l.rng.Intn(8))
	}
	return cp
}
