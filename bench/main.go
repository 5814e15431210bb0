// Command bench is the epoch-pipeline benchmark: four workloads, each run
// either untraced (end-to-end metrics) or traced (per-layer metrics), against
// the contract in ../BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace, repeat int
	var contract bool
	var baseline string
	fs.StringVar(&opt.workload, "workload", "", "workload to run: steady-2k, crisis-100, fleet-2x1k or dirty-2k")
	fs.Int64Var(&opt.seed, "seed", 1, "seed of the load generator, the only workload input")
	fs.Float64Var(&opt.seconds, "seconds", runSeconds, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1: traced run, per-layer metrics and bench/out/<workload>.spans.jsonl; 0: end-to-end metrics")
	fs.IntVar(&opt.epochs, "epochs", 0, "measure this many epochs instead of --seconds, so that counts repeat exactly")
	fs.IntVar(&opt.machines, "machines", 0, "override the workload's machine count")
	fs.StringVar(&opt.outDir, "out", "bench/out", "directory the traced run writes its span file to")
	fs.StringVar(&opt.timeline, "timeline-output", "", "write one CSV row per measured epoch to this file")
	fs.IntVar(&repeat, "repeat", 0, "run every workload this many times, seeds --seed upward, and check each end-to-end spread against its bound")
	fs.StringVar(&baseline, "baseline-output", "", "with --repeat: write the environment and the medians to this JSON file")
	fs.BoolVar(&contract, "contract", false, "print BENCHMARK.json as this program defines it and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace != 0

	switch {
	case contract:
		b, err := contractJSON()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		stdout.Write(b)
		return 0
	case repeat > 0:
		if err := runRepeat(opt, repeat, baseline, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	info := func(format string, args ...any) { fmt.Fprintf(stdout, format+"\n", args...) }
	res, err := runWorkload(opt, info)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}
