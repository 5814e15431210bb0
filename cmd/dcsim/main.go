// Command dcsim generates a simulated datacenter trace and prints its
// inventory: periods, crisis schedule (injected vs detected), SLA summary,
// and per-metric quantile snapshots.
//
// Usage:
//
//	dcsim [-scale small|full] [-seed N] [-crises] [-metrics]
//	      [-progress] [-telemetry-addr :9137] [-workers N]
//
// -progress streams one structured log line per simulated day to stderr;
// -telemetry-addr serves /metrics (dcfp_sim_* series) and /debug/pprof for
// the duration of the run — useful for profiling full-scale simulations.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"time"

	"dcfp/internal/dcsim"
	"dcfp/internal/metrics"
	"dcfp/internal/report"
	"dcfp/internal/telemetry"
	"dcfp/internal/tracefile"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dcsim: ")
	var (
		scale       = flag.String("scale", "small", "trace scale: small or full")
		seed        = flag.Int64("seed", 42, "simulation seed")
		showCrises  = flag.Bool("crises", true, "print the crisis schedule")
		showMetrics = flag.Bool("metrics", false, "print a quantile snapshot per metric")
		load        = flag.String("load", "", "load a saved trace instead of simulating")
		save        = flag.String("save", "", "save the simulated trace to this path")
		progress    = flag.Bool("progress", false, "log one line per simulated day to stderr")
		telAddr     = flag.String("telemetry-addr", "", "serve /metrics and /debug/pprof on this address during the run")
		workers     = flag.Int("workers", 0, "worker goroutines for epoch generation (0 = GOMAXPROCS; the trace is identical for any value)")
	)
	flag.Parse()

	var reg *telemetry.Registry
	if *telAddr != "" {
		reg = telemetry.NewRegistry()
		srv, bound, err := telemetry.Serve(*telAddr, telemetry.NewHandler(reg, telemetry.Endpoints{}))
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("telemetry on http://%s/{metrics,debug/pprof}", bound)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
	}

	start := time.Now()
	var tr *dcsim.Trace
	var err error
	if *load != "" {
		tr, err = tracefile.Load(*load)
	} else {
		var cfg dcsim.Config
		switch *scale {
		case "small":
			cfg = dcsim.SmallConfig(*seed)
		case "full":
			cfg = dcsim.DefaultConfig(*seed)
		default:
			log.Fatalf("unknown scale %q", *scale)
		}
		cfg.Telemetry = reg
		cfg.Workers = *workers
		if *progress {
			cfg.Events = telemetry.NewEventLog(slog.New(slog.NewTextHandler(os.Stderr, nil)))
		}
		tr, err = dcsim.Simulate(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *save != "" {
		if err := tracefile.Save(*save, tr); err != nil {
			log.Fatal(err)
		}
		log.Printf("trace saved to %s", *save)
	}
	fmt.Printf("trace: %d machines x %d metrics x %d epochs (ready in %v)\n",
		tr.Config.Machines, tr.Catalog.Len(), tr.NumEpochs(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("periods: background [0,%d), unlabeled [%d,%d), labeled [%d,%d)\n",
		tr.UnlabeledStart, tr.UnlabeledStart, tr.LabeledStart, tr.LabeledStart, tr.NumEpochs())

	crisisEpochs := 0
	for _, c := range tr.InCrisis {
		if c {
			crisisEpochs++
		}
	}
	fmt.Printf("SLA: %d crisis epochs (%.2f%%), %d detected episodes, %d injected instances\n",
		crisisEpochs, 100*float64(crisisEpochs)/float64(tr.NumEpochs()), len(tr.Episodes), len(tr.Instances))

	if *showCrises {
		fmt.Println()
		var rows [][]string
		for _, dc := range tr.DetectedCrises() {
			in := dc.Instance
			rows = append(rows, []string{
				in.ID, in.Type.String(), in.Type.Label(),
				fmt.Sprint(in.Start), fmt.Sprint(in.Duration),
				fmt.Sprint(dc.Episode.Start), fmt.Sprint(dc.Episode.Len()),
				fmt.Sprintf("%.2f", in.AffectedFraction),
			})
		}
		if err := report.Table(os.Stdout,
			[]string{"id", "type", "label", "injected", "dur", "detected", "episode", "frac"}, rows); err != nil {
			log.Fatal(err)
		}
	}

	if *showMetrics {
		fmt.Println()
		e := metrics.Epoch(tr.NumEpochs() / 2)
		fmt.Printf("quantile snapshot at epoch %d (q25 / q50 / q95):\n", e)
		var rows [][]string
		for m := 0; m < tr.Catalog.Len(); m++ {
			q25, _ := tr.Track.At(e, m, 0)
			q50, _ := tr.Track.At(e, m, 1)
			q95, _ := tr.Track.At(e, m, 2)
			rows = append(rows, []string{
				tr.Catalog.Name(m),
				fmt.Sprintf("%.2f", q25), fmt.Sprintf("%.2f", q50), fmt.Sprintf("%.2f", q95),
			})
		}
		if err := report.Table(os.Stdout, []string{"metric", "q25", "q50", "q95"}, rows); err != nil {
			log.Fatal(err)
		}
	}
}
