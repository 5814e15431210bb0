package main

import (
	"context"
	"log"
	"time"

	"dcfp/internal/dcsim"
	"dcfp/internal/fleet"
	"dcfp/internal/metrics"
	"dcfp/internal/telemetry"
)

// runAggregator drives the shard half of distributed mode: the full
// deterministic simulator runs locally (every shard sees the same seeded
// fleet), but only the shard's assigned machine slice is filtered,
// summarized, and shipped. Fault-injection flags do not apply — frames
// carry the raw simulated rows, and fleet-level degradation comes from
// shards going away, which the coordinator synthesizes as non-reporting
// machines.
func runAggregator(ctx context.Context, c *config, stream *dcsim.Stream, reg *telemetry.Registry) {
	if c.coordAddr == "" {
		log.Fatal("-role aggregator requires -coordinator-addr")
	}
	uptime := uptimeGauge(reg)
	tracer := telemetry.NewTracer(c.traceCap)
	g, err := fleet.NewAggregator(fleet.AggregatorConfig{
		Shard: c.shardIndex, Shards: c.shards, Machines: c.machines,
		NumMetrics: stream.Catalog().Len(), SLA: stream.SLA(),
		CoordinatorURL: c.coordAddr, MaxElapsed: c.fleetShipTO,
		Telemetry: reg, Tracer: tracer,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, bound, err := telemetry.Serve(c.addr, telemetry.NewHandler(reg, telemetry.Endpoints{
		Traces: func() any { return tracer.Snapshots() },
	}))
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("shard %d/%d serving http://%s/metrics, shipping to %s",
		c.shardIndex, c.shards, bound, c.coordAddr)
	t0 := time.Now()

	// Wait for the coordinator, adopt its current assignment, and learn how
	// far the merge has progressed so a restarted shard fast-forwards its
	// simulator instead of replaying already-merged epochs.
	retry, stopRetry := pacer(ctx, 2*time.Second)
	from, err := g.Bootstrap(ctx)
	for ; err != nil; from, err = g.Bootstrap(ctx) {
		if ctx.Err() == nil {
			log.Printf("waiting for coordinator at %s: %v", c.coordAddr, err)
		}
		if !retry() {
			return
		}
	}
	stopRetry()
	if from > 0 {
		log.Printf("fast-forwarding to merge watermark %d", from)
	}

	ring := fleet.NewRing(c.fleetReplay, reg)
	shipped := 0
	// drain reports false on a rejection that makes continuing pointless.
	drain := func(ctx context.Context) bool {
		n, err := g.Drain(ctx, ring, log.Printf)
		shipped += n
		if err != nil {
			// A deliberate rejection cannot be retried; exit so an operator
			// restarts us fresh.
			log.Printf("exiting: %v", err)
		}
		return err == nil
	}
	wait, stop := pacer(ctx, c.interval)
	defer stop()
	for e := metrics.Epoch(0); c.maxEpochs == 0 || e < metrics.Epoch(c.maxEpochs); e++ {
		rows, act, err := stream.Next()
		if err != nil {
			log.Fatal(err)
		}
		if e < from {
			continue
		}
		frame, err := g.EpochFrame(e, rows, act)
		if err != nil {
			log.Fatal(err)
		}
		ring.Add(e, frame)
		if !drain(ctx) {
			break
		}
		uptime.Set(time.Since(t0).Seconds())
		if !wait() {
			break
		}
	}
	// Graceful shutdown: whether the run ended by signal or by -max-epochs,
	// give the queued tail a bounded final drain on a fresh context so a
	// SIGTERM mid-outage still delivers everything it can.
	if ring.Pending() > 0 {
		log.Printf("draining %d buffered frames before exit", ring.Pending())
		drainCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		retry, stopRetry := pacer(drainCtx, 200*time.Millisecond)
		for drain(drainCtx) && ring.Pending() > 0 && retry() {
		}
		stopRetry()
		cancel()
		if n := ring.Pending(); n > 0 {
			log.Printf("WARNING: exiting with %d undelivered frames", n)
		}
	}
	if n := ring.Evicted(); n > 0 {
		log.Printf("WARNING: %d frames evicted from the replay ring during outages", n)
	}
	shutdownHTTP(srv)
	log.Printf("done: %d epochs shipped", shipped)
}
