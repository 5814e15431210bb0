package fleet

import (
	"cmp"
	"fmt"
	"net/http"

	"dcfp/internal/crisis"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
)

// ChaosConfig assembles a ChaosHarness.
type ChaosConfig struct {
	Coordinator CoordinatorConfig
	// Aggregator is a template: Shard/Shards/Machines are filled in.
	Aggregator AggregatorConfig
	// Faults is the transport fault injector (nil = a perfect network).
	Faults *LinkFaults
	// FlushAfterSteps is the step-counted lateness budget: the watermark
	// epoch is force-merged (absent shards synthesized as non-reporting)
	// once the stream runs this many epochs past it. It is the
	// deterministic stand-in for CoordinatorConfig.FlushAfter, which the
	// harness disables. Default 4; faults that delay frames by less leave
	// the merge byte-identical to a clean run.
	FlushAfterSteps int
	// ReplayCapacity is each shard's Ring capacity; losses are surfaced via
	// Evicted. Default 64.
	ReplayCapacity int
}

// delivery is the harness's step-clocked bookkeeping for one undelivered
// ring frame; the zero value means never attempted.
type delivery struct {
	inflight    int // scheduled arrivals (original or mutated copies) not yet landed
	lastAttempt int // step of the last delivery attempt, to bound retries to one per step
}

// scheduled is one in-flight arrival.
type scheduled struct {
	due     int
	shard   int
	epoch   metrics.Epoch
	data    []byte
	mutated bool
}

// ChaosHarness is the fault-injecting sibling of Harness: N shard
// aggregators and one coordinator in-process, every frame passing through
// the wire codec and, between them, a LinkFaults plan. Delivery is
// step-clocked — one Step per fleet epoch, with delayed frames landing on
// later steps — so runs are deterministic for any seeded fault mix. Frames
// that fail to deliver stay queued in a per-shard replay ring and are
// re-attempted each step, which is how a partition heals into a replayed
// backlog instead of lost epochs.
type ChaosHarness struct {
	Coordinator *Coordinator
	Aggregators []*Aggregator

	cfg     ChaosConfig
	step    int
	epoch   metrics.Epoch // last epoch fed to Step
	stopped []bool
	rings   []*Ring
	deliv   []map[metrics.Epoch]*delivery // per shard, keyed by frame epoch
	sched   []scheduled

	// ZombieRejected counts frames refused with 409 because the shard had
	// been declared dead before it came back.
	ZombieRejected int
}

// NewChaosHarness builds the fleet. The coordinator's wall-clock FlushAfter
// is disabled in favor of the harness's step-counted budget.
func NewChaosHarness(cfg ChaosConfig) (*ChaosHarness, error) {
	cfg.FlushAfterSteps = cmp.Or(cfg.FlushAfterSteps, 4)
	if cfg.FlushAfterSteps < 1 {
		return nil, fmt.Errorf("fleet: FlushAfterSteps %d must be >= 1", cfg.FlushAfterSteps)
	}
	if cfg.Coordinator.Window <= 0 {
		// Normalized here too (NewCoordinator defaults its own copy): the
		// harness reads the window for its throttle-avoidance limit.
		cfg.Coordinator.Window = 8
	}
	cfg.ReplayCapacity = cmp.Or(cfg.ReplayCapacity, 64)
	if cfg.ReplayCapacity < cfg.Coordinator.Window {
		return nil, fmt.Errorf("fleet: ReplayCapacity %d below the coordinator window %d",
			cfg.ReplayCapacity, cfg.Coordinator.Window)
	}
	cfg.Coordinator.FlushAfter = -1
	h, err := NewHarness(cfg.Coordinator, cfg.Aggregator)
	if err != nil {
		return nil, err
	}
	ch := &ChaosHarness{
		Coordinator: h.Coordinator,
		Aggregators: h.Aggregators,
		cfg:         cfg,
		stopped:     h.stopped,
		rings:       make([]*Ring, cfg.Coordinator.Shards),
		deliv:       make([]map[metrics.Epoch]*delivery, cfg.Coordinator.Shards),
	}
	for s := range ch.rings {
		ch.resetRing(s)
	}
	return ch, nil
}

// Kill simulates shard s dying: no further frames are built and its queued
// (undelivered) backlog is lost with the process. Copies already in flight
// still land.
func (ch *ChaosHarness) Kill(s int) {
	ch.stopped[s] = true
	ch.resetRing(s)
}

func (ch *ChaosHarness) resetRing(s int) {
	ch.rings[s] = NewRing(ch.cfg.ReplayCapacity, ch.cfg.Aggregator.Telemetry)
	ch.deliv[s] = make(map[metrics.Epoch]*delivery)
}

// Restart brings shard s back with an empty ring, adopting the
// coordinator's current assignment (the Bootstrap step of a real restart).
// If the coordinator declared the shard dead meanwhile, its next frame is
// refused and the shard stops again — a zombie must not double-cover
// machines the survivors took over.
func (ch *ChaosHarness) Restart(s int) {
	ch.stopped[s] = false
	ch.resetRing(s)
	ch.Aggregators[s].Adopt(ch.Coordinator.Assignment())
}

// StepCount is the harness's delivery-step clock: one tick per Step or Drain
// iteration. LinkFaults schedules (Partition heal steps, delay arrivals) are
// expressed on this clock, so external drivers — the scenario runner — use
// it to time faults relative to the run.
func (ch *ChaosHarness) StepCount() int { return ch.step }

// Evicted returns the total frames dropped from replay rings by capacity
// pressure (lost work: the coordinator synthesized those shard-epochs).
func (ch *ChaosHarness) Evicted() int {
	n := 0
	for _, r := range ch.rings {
		n += r.Evicted()
	}
	return n
}

// SetCoordinator swaps in a restarted coordinator (rebuilt from a
// checkpoint by the caller). In-flight arrivals addressed to the dead
// process are lost; every ring is rewound to the restored watermark so the
// backlog replays and fast-forwards the new coordinator — the same Rewind
// Aggregator.Drain performs when it sees the watermark regress.
func (ch *ChaosHarness) SetCoordinator(c *Coordinator) {
	ch.Coordinator = c
	ch.sched = ch.sched[:0]
	for s, ring := range ch.rings {
		ring.Rewind(c.Watermark())
		clear(ch.deliv[s])
	}
}

// RestartCoordinator models a coordinator crash-failover: it builds a fresh
// coordinator from the harness's own config (same geometry, telemetry, and
// report callback) around mon — typically a monitor just restored from a
// checkpoint — installs the checkpointed coordinator state, and swaps it in
// so the shard backlogs fast-forward it to the present.
func (ch *ChaosHarness) RestartCoordinator(mon *monitor.Monitor, st CoordinatorState) (*Coordinator, error) {
	cfg := ch.cfg.Coordinator
	cfg.Monitor = mon
	coord, err := NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	if err := coord.Restore(st); err != nil {
		return nil, err
	}
	ch.SetCoordinator(coord)
	return coord, nil
}

// Step feeds one fleet epoch through every live aggregator, runs the fault
// plan over all deliverable frames, lands due in-flight copies, and applies
// the step-counted lateness budget.
func (ch *ChaosHarness) Step(e metrics.Epoch, rows [][]float64, active *crisis.Instance) error {
	ch.step++
	ch.epoch = e
	for s, g := range ch.Aggregators {
		if ch.stopped[s] || len(g.asn.Ranges[s]) == 0 {
			continue
		}
		frame, err := g.EpochFrame(e, rows, active)
		if err != nil {
			return fmt.Errorf("shard %d epoch %d: %w", s, e, err)
		}
		ch.rings[s].Add(e, frame)
	}
	ch.pump()
	// Lateness budget: merge the watermark epoch once the stream has run
	// FlushAfterSteps epochs past it, however little of it arrived.
	for ch.Coordinator.Watermark()+metrics.Epoch(ch.cfg.FlushAfterSteps) <= ch.epoch {
		ch.Coordinator.ForceMerge()
	}
	return nil
}

// Drain pumps delivery steps without new epochs until the coordinator's
// watermark passes the last fed epoch, force-merging when a step makes no
// progress (e.g. a killed shard's frames are simply gone). It errors if
// maxSteps elapse first.
func (ch *ChaosHarness) Drain(maxSteps int) error {
	for i := 0; i < maxSteps; i++ {
		if ch.Coordinator.Watermark() > ch.epoch {
			return nil
		}
		ch.step++
		before := ch.Coordinator.Watermark()
		ch.pump()
		if ch.Coordinator.Watermark() == before && !ch.pendingWork() {
			ch.Coordinator.ForceMerge()
		}
	}
	if ch.Coordinator.Watermark() <= ch.epoch {
		return fmt.Errorf("fleet: drain stalled at watermark %d after %d steps (target %d)",
			ch.Coordinator.Watermark(), maxSteps, ch.epoch)
	}
	return nil
}

// pendingWork reports whether any delivery could still make progress
// without force-merging: an in-flight copy, or an undelivered frame on a
// live unpartitioned link.
func (ch *ChaosHarness) pendingWork() bool {
	if len(ch.sched) > 0 {
		return true
	}
	for s, ring := range ch.rings {
		if ch.stopped[s] || ch.cfg.Faults.Partitioned(s, ch.step) {
			continue
		}
		for _, f := range ring.frames {
			if !f.delivered && f.epoch >= ch.Coordinator.Watermark() {
				return true
			}
		}
	}
	return false
}

// pump lands due in-flight copies, then plans delivery attempts for every
// eligible queued frame, repeating while progress opens the window further.
func (ch *ChaosHarness) pump() {
	ch.landDue()
	for {
		progressed := false
		wm := ch.Coordinator.Watermark()
		limit := wm + metrics.Epoch(ch.cfg.Coordinator.Window)
		for s, ring := range ch.rings {
			if ch.stopped[s] {
				continue
			}
			for _, f := range ring.frames {
				if f.delivered || f.epoch >= limit {
					continue
				}
				d := ch.deliv[s][f.epoch]
				if d == nil {
					d = &delivery{}
					ch.deliv[s][f.epoch] = d
				}
				if d.inflight > 0 || d.lastAttempt >= ch.step {
					continue
				}
				d.lastAttempt = ch.step
				for _, p := range ch.cfg.Faults.Plan(s, ch.step, f.data) {
					if p.DelaySteps <= 0 {
						ch.land(scheduled{shard: s, epoch: f.epoch, data: p.Frame, mutated: p.Mutated})
						progressed = true
					} else {
						d.inflight++
						ch.sched = append(ch.sched, scheduled{
							due: ch.step + p.DelaySteps, shard: s, epoch: f.epoch,
							data: p.Frame, mutated: p.Mutated,
						})
					}
				}
			}
		}
		if !progressed || ch.Coordinator.Watermark() == wm {
			return
		}
	}
}

// landDue delivers every scheduled copy whose step has come, in send order.
func (ch *ChaosHarness) landDue() {
	rest := ch.sched[:0]
	due := make([]scheduled, 0, len(ch.sched))
	for _, s := range ch.sched {
		if s.due <= ch.step {
			due = append(due, s)
		} else {
			rest = append(rest, s)
		}
	}
	ch.sched = rest
	for _, s := range due {
		if d := ch.deliv[s.shard][s.epoch]; d != nil {
			d.inflight--
		}
		ch.land(s)
	}
}

// land hands one arrival to the coordinator and applies the ack to the
// sender's ring.
func (ch *ChaosHarness) land(s scheduled) {
	ack, code := ch.Coordinator.HandleFrameBytes(s.data)
	if s.mutated {
		// The damaged copy must have been rejected; the original is still
		// queued and retries next step. Nothing to record.
		return
	}
	switch {
	case ack.Throttle:
		// Ahead of the window; retry later.
	case code == http.StatusConflict:
		// Declared dead (or geometry mismatch): the shard must stop
		// shipping — its machines belong to the survivors now.
		ch.ZombieRejected++
		ch.stopped[s.shard] = true
	case ack.OK:
		ch.rings[s.shard].Ack(s.epoch)
		delete(ch.deliv[s.shard], s.epoch)
		if ack.Assignment != nil && !ch.stopped[s.shard] {
			ch.Aggregators[s.shard].Adopt(*ack.Assignment)
		}
		// Delivery bypassed ShipEpoch, so close the observe_shard trace here.
		ch.Aggregators[s.shard].NoteShipped(s.epoch)
	}
}
