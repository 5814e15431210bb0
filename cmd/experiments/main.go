// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated datacenter and prints them as text tables and
// ASCII plots.
//
// Usage:
//
//	experiments [-scale small|full] [-seed N] [-run all|table1|figure1|
//	             figure3|figure4|figure5|figure6|figure7|figure8|table2|
//	             sensitivity|hotcold|ablation|storage|relevant]
//	            [-workers N] [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// The full scale matches the paper's setup (100 machines, 120 background +
// 120 unlabeled + 120 labeled days) and takes a few minutes; small is the
// test-sized trace. -workers fans both the trace simulation and the
// identification alpha grid across N goroutines (0 = GOMAXPROCS) with
// byte-identical results for any value; -cpuprofile/-memprofile write pprof
// profiles of the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dcfp/internal/core"
	"dcfp/internal/dcsim"
	"dcfp/internal/experiment"
	"dcfp/internal/report"
	"dcfp/internal/telemetry"
	"dcfp/internal/tracefile"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		scale      = flag.String("scale", "full", "trace scale: small or full")
		seed       = flag.Int64("seed", 42, "simulation seed")
		run        = flag.String("run", "all", "which experiment to run (comma-separated)")
		load       = flag.String("load", "", "load a saved trace instead of simulating")
		save       = flag.String("save", "", "save the simulated trace to this path")
		tel        = flag.String("telemetry-addr", "", "serve /metrics and /debug/pprof on this address during the run")
		workers    = flag.Int("workers", 0, "worker goroutines for trace simulation (0 = GOMAXPROCS; the trace is identical for any value)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
		}()
	}

	var reg *telemetry.Registry
	if *tel != "" {
		reg = telemetry.NewRegistry()
		srv, bound, err := telemetry.Serve(*tel, telemetry.NewHandler(reg, telemetry.Endpoints{}))
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
		log.Printf("loading trace from %s...", *load)
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
		log.Printf("simulating trace (%s scale, seed %d)...", *scale, *seed)
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
	env, err := experiment.NewEnv(tr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("trace ready in %v: %d epochs, %d detected crises (%d labeled)",
		time.Since(start).Round(time.Second), tr.NumEpochs(), len(env.All), len(env.Labeled))

	all := map[string]func(*experiment.Env, int64) error{
		"table1":      runTable1,
		"figure1":     runFigure1,
		"figure3":     runFigure3,
		"figure4":     runFigure4,
		"figure5":     runFigure5,
		"figure6":     runFigure6,
		"figure7":     runFigure7,
		"figure8":     runFigure8,
		"table2":      runTable2,
		"sensitivity": runSensitivity,
		"hotcold":     runHotCold,
		"ablation":    runAblation,
		"storage":     runStorage,
		"relevant":    runRelevant,
	}
	order := []string{"table1", "figure1", "figure3", "figure4", "figure5", "figure6",
		"figure7", "figure8", "table2", "sensitivity", "hotcold", "ablation",
		"storage", "relevant"}

	wanted := strings.Split(*run, ",")
	if *run == "all" {
		wanted = order
	}
	for _, name := range wanted {
		fn, ok := all[strings.TrimSpace(name)]
		if !ok {
			log.Fatalf("unknown experiment %q", name)
		}
		t0 := time.Now()
		fmt.Printf("\n================ %s ================\n\n", strings.ToUpper(name))
		if err := fn(env, *seed); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		log.Printf("%s done in %v", name, time.Since(t0).Round(time.Millisecond))
	}
}

func runTable1(env *experiment.Env, seed int64) error {
	rows := experiment.Table1(env)
	var cells [][]string
	total, detected := 0, 0
	for _, r := range rows {
		cells = append(cells, []string{r.ID, fmt.Sprint(r.Instances), r.Label, fmt.Sprint(r.Detected)})
		total += r.Instances
		detected += r.Detected
	}
	cells = append(cells, []string{"", fmt.Sprint(total), "total", fmt.Sprint(detected)})
	return report.Table(os.Stdout, []string{"ID", "#", "label", "detected"}, cells)
}

func runFigure1(env *experiment.Env, seed int64) error {
	crises, err := experiment.Figure1(env)
	if err != nil {
		return err
	}
	for _, c := range crises {
		fmt.Printf("crisis %s (type %s: %s) — rows are epochs, columns metric quantiles ('#' hot, '.' cold)\n",
			c.ID, c.Type, c.Label)
		if err := report.Heatmap(os.Stdout, c.Grid); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runFigure3(env *experiment.Env, seed int64) error {
	entries, err := experiment.Figure3(env)
	if err != nil {
		return err
	}
	var cells [][]string
	for _, e := range entries {
		cells = append(cells, []string{e.Method, report.F(e.AUC, 3)})
	}
	if err := report.Table(os.Stdout, []string{"type of fingerprint", "AUC"}, cells); err != nil {
		return err
	}
	fmt.Println()
	// Plot recall vs FPR sampled on a uniform grid.
	grid := make([]float64, 41)
	for i := range grid {
		grid[i] = float64(i) / 40
	}
	var series []report.Series
	for _, e := range entries {
		y := make([]float64, len(grid))
		for i, a := range grid {
			y[i] = e.ROC.RecallAtFPR(a)
		}
		series = append(series, report.Series{Name: e.Method, Y: y})
	}
	return report.LinePlot(os.Stdout, "distance ROC: recall vs false alarm rate", grid, series, 16)
}

func identSeriesPlot(title string, ss []experiment.IdentSeries) error {
	for _, s := range ss {
		a, k, u := s.Crossing()
		fmt.Printf("%s [%s]: crossing at alpha=%.2f -> known %s, unknown %s\n",
			s.Method, s.Setting, a, report.Pct(k), report.Pct(u))
	}
	fmt.Println()
	for _, s := range ss {
		err := report.LinePlot(os.Stdout,
			fmt.Sprintf("%s — %s [%s]", title, s.Method, s.Setting),
			s.Alphas,
			[]report.Series{
				{Name: "known accuracy", Y: s.Known},
				{Name: "unknown accuracy", Y: s.Unknown},
				{Name: "time to ident (min/100)", Y: scale(s.MeanTTIMinutes, 0.01)},
			}, 12)
		if err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func runFigure4(env *experiment.Env, seed int64) error {
	ss, err := experiment.Figure4(env, seed)
	if err != nil {
		return err
	}
	return identSeriesPlot("Figure 4 (offline identification)", ss)
}

func runFigure5(env *experiment.Env, seed int64) error {
	s, err := experiment.Figure5(env, seed)
	if err != nil {
		return err
	}
	return identSeriesPlot("Figure 5 (quasi-online)", []experiment.IdentSeries{s})
}

func runFigure6(env *experiment.Env, seed int64) error {
	entries, err := experiment.Figure6(env, seed)
	if err != nil {
		return err
	}
	for _, e := range entries {
		a, k, u := e.Series.Crossing()
		fmt.Printf("%-42s crossing alpha=%.2f known %s unknown %s\n",
			e.Name, a, report.Pct(k), report.Pct(u))
	}
	fmt.Println()
	for _, e := range entries {
		if err := identSeriesPlot("Figure 6 — "+e.Name, []experiment.IdentSeries{e.Series}); err != nil {
			return err
		}
	}
	return nil
}

func runFigure7(env *experiment.Env, seed int64) error {
	res, err := experiment.Figure7(env)
	if err != nil {
		return err
	}
	headers := []string{"start \\ end (min)"}
	for _, em := range res.EndMinutes {
		headers = append(headers, fmt.Sprint(em))
	}
	var cells [][]string
	for si, sm := range res.StartMinutes {
		row := []string{fmt.Sprint(sm)}
		for ei := range res.EndMinutes {
			row = append(row, report.F(res.AUC[si][ei], 3))
		}
		cells = append(cells, row)
	}
	fmt.Println("AUC of fingerprints summarized over range [start, end] relative to detection:")
	return report.Table(os.Stdout, headers, cells)
}

func runFigure8(env *experiment.Env, seed int64) error {
	s, err := experiment.Figure8(env, seed)
	if err != nil {
		return err
	}
	return identSeriesPlot("Figure 8 (fingerprints not updated)", []experiment.IdentSeries{s})
}

func runTable2(env *experiment.Env, seed int64) error {
	rows, err := experiment.Table2(env, seed)
	if err != nil {
		return err
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Setting, report.Pct(r.Known), report.Pct(r.Unknown), report.F(r.Alpha, 2)})
	}
	return report.Table(os.Stdout, []string{"setting", "known acc.", "unknown acc.", "alpha"}, cells)
}

func runSensitivity(env *experiment.Env, seed int64) error {
	cells, err := experiment.SensitivityMetricsWindow(env, seed,
		[]int{30, 20, 10, 5}, []int{240, 120, 30, 7})
	if err != nil {
		return err
	}
	var rows [][]string
	for _, c := range cells {
		rows = append(rows, []string{
			fmt.Sprint(c.NumMetrics), fmt.Sprint(c.WindowDays),
			report.Pct(c.Known), report.Pct(c.Unknown), report.F(c.Alpha, 2),
		})
	}
	fmt.Println("online (bootstrap 10) accuracy at the crossing point:")
	return report.Table(os.Stdout, []string{"metrics", "window (days)", "known", "unknown", "alpha"}, rows)
}

func runHotCold(env *experiment.Env, seed int64) error {
	cells, err := experiment.SensitivityHotCold(env)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, c := range cells {
		rows = append(rows, []string{
			fmt.Sprintf("%g/%g", c.ColdPct, c.HotPct), report.F(c.AUC, 3),
		})
	}
	fmt.Println("discriminative power by hot/cold threshold percentiles (§6.2):")
	return report.Table(os.Stdout, []string{"cold/hot percentiles", "AUC"}, rows)
}

func runAblation(env *experiment.Env, seed int64) error {
	cells, err := experiment.AblationQuantileCount(env)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, c := range cells {
		rows = append(rows, []string{fmt.Sprint(c.Quantiles), report.F(c.AUC, 3)})
	}
	fmt.Println("discriminative power by tracked quantiles (§3.5 observation):")
	return report.Table(os.Stdout, []string{"quantiles", "AUC"}, rows)
}

func runStorage(env *experiment.Env, seed int64) error {
	nm := env.Trace.Catalog.Len()
	r := core.DefaultSummaryRange()
	fmt.Printf("bookkeeping cost per crisis (§6.3): %d metrics x 3 quantiles x %d epochs x 8 bytes = %d bytes\n",
		nm, r.Len(), core.BytesPerCrisis(nm, r))
	fmt.Printf("(the paper counts 4-byte values: %d bytes)\n", core.BytesPerCrisis(nm, r)/2)
	return nil
}

func runRelevant(env *experiment.Env, seed int64) error {
	for _, n := range []int{15, 30} {
		names, err := experiment.RelevantMetricNames(env, 10, n)
		if err != nil {
			return err
		}
		fmt.Printf("offline relevant metrics (top 10/crisis, %d most frequent):\n", n)
		for _, nm := range names {
			fmt.Printf("  %s\n", nm)
		}
		fmt.Println()
	}
	return nil
}
