package fleet

import (
	"fmt"

	"dcfp/internal/crisis"
	"dcfp/internal/metrics"
)

// Harness wires N shard aggregators and one coordinator inside a single
// process, bypassing HTTP: frames still travel through the full
// encode/decode wire codec, but delivery is a direct HandleFrameBytes
// call, making runs deterministic and fast. It is the test vehicle for the
// N-shard equivalence guarantee and for dead-shard behavior, and doubles
// as an embedding example.
type Harness struct {
	Coordinator *Coordinator
	Aggregators []*Aggregator
	stopped     []bool
}

// NewHarness builds the aggregators and coordinator from a shared
// geometry. aggCfg is a template: Shard is filled per aggregator.
func NewHarness(coordCfg CoordinatorConfig, aggCfg AggregatorConfig) (*Harness, error) {
	coord, err := NewCoordinator(coordCfg)
	if err != nil {
		return nil, err
	}
	h := &Harness{Coordinator: coord, stopped: make([]bool, coordCfg.Shards)}
	for s := 0; s < coordCfg.Shards; s++ {
		cfg := aggCfg
		cfg.Shard = s
		cfg.Shards = coordCfg.Shards
		cfg.Machines = coordCfg.Machines
		g, err := NewAggregator(cfg)
		if err != nil {
			return nil, err
		}
		h.Aggregators = append(h.Aggregators, g)
	}
	return h, nil
}

// Stop simulates killing shard s: its aggregator builds no further frames.
func (h *Harness) Stop(s int) { h.stopped[s] = true }

// Step feeds one fleet epoch through every live aggregator and delivers
// the frames to the coordinator. If stopped shards leave the epoch
// incomplete, it force-flushes until the watermark passes e — the
// in-process stand-in for the wall-clock lateness budget.
func (h *Harness) Step(e metrics.Epoch, rows [][]float64, active *crisis.Instance) error {
	for s, g := range h.Aggregators {
		if h.stopped[s] {
			continue
		}
		if len(g.asn.Ranges[s]) == 0 {
			continue
		}
		frame, err := g.EpochFrame(e, rows, active)
		if err != nil {
			return fmt.Errorf("shard %d epoch %d: %w", s, e, err)
		}
		ack, _ := h.Coordinator.HandleFrameBytes(frame)
		switch {
		case ack.Throttle:
			return fmt.Errorf("shard %d epoch %d: throttled inside synchronous harness", s, e)
		case !ack.OK:
			return fmt.Errorf("shard %d epoch %d: %s", s, e, ack.Error)
		}
		if ack.Assignment != nil {
			g.Adopt(*ack.Assignment)
		}
		// Delivery bypassed ShipEpoch, so close the observe_shard trace here.
		g.NoteShipped(e)
	}
	for h.Coordinator.Watermark() <= e {
		if !h.Coordinator.ForceFlush() {
			return fmt.Errorf("epoch %d: coordinator stalled with no pending frames", e)
		}
	}
	return nil
}
