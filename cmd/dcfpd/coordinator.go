package main

import (
	"context"
	"log"
	"net/http"
	"time"

	"dcfp/internal/crisis"
	"dcfp/internal/fleet"
	"dcfp/internal/monitor"
	"dcfp/internal/telemetry"
)

// runCoordinator serves the merge half of distributed mode: epochs arrive
// as shard frames over HTTP instead of from a local simulator (the shards
// fast-forward themselves from the restored merge watermark); everything
// downstream of the merge — detection, identification, the simulated
// operator, alerts, history, checkpoints — is the single-node daemon
// unchanged.
func runCoordinator(ctx context.Context, d *daemon) {
	c, reg := d.cfg, d.mcfg.Telemetry
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Machines: c.machines, Shards: c.shards, Monitor: d.mon,
		Window: c.fleetWindow, FlushAfter: c.fleetFlush, DeadAfterEpochs: c.fleetDead,
		OnReport: func(rep *monitor.EpochReport, active *crisis.Instance) {
			d.mu.Lock()
			defer d.mu.Unlock()
			d.emitted++
			if err := d.observe(rep, active); err != nil {
				log.Printf("WARNING: epoch %d bookkeeping: %v", rep.Epoch, err)
			}
			if c.maxEpochs > 0 && d.emitted >= int64(c.maxEpochs) {
				cancel()
			}
		},
		Telemetry: reg, Events: d.mcfg.Events, Tracer: d.tracer,
	})
	if err != nil {
		log.Fatal(err)
	}
	d.coord = coord
	if d.fleet != nil {
		if err := coord.Restore(*d.fleet); err != nil {
			log.Fatalf("restoring coordinator state: %v", err)
		}
		log.Printf("restored coordinator state: merge watermark %d", coord.Watermark())
	}

	mux := http.NewServeMux()
	mux.Handle("/fleet/", coord.Handler())
	mux.Handle("/", telemetry.NewHandler(reg, d.endpoints()))
	srv, bound, err := telemetry.Serve(c.addr, mux)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("coordinating %d machines across %d shards — frames on http://%s/fleet/frame, observability on /{metrics,healthz,crises,traces,accuracy,explain,alerts,api/history,dash}",
		c.machines, c.shards, bound)

	go coord.Run(ctx)
	if c.ckptDir != "" && c.ckptEvery > 0 {
		// Epochs arrive at network rate here, so the cadence check runs on
		// wall clock: snapshot once another checkpoint interval of epochs
		// has been merged.
		go func() {
			wait, stop := pacer(ctx, 5*time.Second)
			defer stop()
			for last := int64(0); wait(); {
				d.mu.Lock()
				n := d.emitted
				d.mu.Unlock()
				if n-last >= int64(c.ckptEvery) {
					d.checkpoint()
					last = n
				}
			}
		}()
	}
	<-ctx.Done()

	shutdownHTTP(srv)
	// Graceful drain: merge every epoch that already has frames waiting
	// (synthesizing stragglers) so the final checkpoint carries everything
	// the shards delivered before the signal.
	drained := 0
	for coord.ForceFlush() {
		drained++
	}
	if drained > 0 {
		log.Printf("drained %d buffered epochs at shutdown", drained)
	}
	d.finish()
}
