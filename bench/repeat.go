package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// spread is one end-to-end metric over the repeated runs of one workload.
type spread struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 - q1) / median
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
}

// environment is what the numbers of a baseline file were measured on;
// numbers from different boxes are never compared.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seeds      []int64 `json:"seeds"`
	Seconds    float64 `json:"seconds"`
}

type workloadBaseline struct {
	Machines int               `json:"machines"`
	Shards   int               `json:"shards"`
	Warmup   int               `json:"warmup_epochs"`
	Epochs   []int             `json:"measured_epochs"`
	Metrics  map[string]spread `json:"end_to_end"`
}

// runRepeat runs every workload n times untraced, one process per run (peak
// RSS is per process), and fails when a metric's interquartile spread
// exceeds its bound or when runs that must agree on a digest do not.
func runRepeat(opt options, n int, baselinePath string, out io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		Go: runtime.Version(), Commit: gitCommit(), Seconds: opt.seconds,
	}
	for i := 0; i < n; i++ {
		env.Seeds = append(env.Seeds, opt.seed+int64(i))
	}
	specs := workloads
	if opt.workload != "" {
		sp, ok := findWorkload(opt.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", opt.workload)
		}
		specs = []spec{sp}
	}
	baseline := map[string]workloadBaseline{}
	digests := map[string]map[string]string{} // "seed/digest@n" → workload → digest
	var failures []string
	for _, sp := range specs {
		wb := workloadBaseline{Machines: sp.machines, Shards: sp.shards, Warmup: sp.warmup, Metrics: map[string]spread{}}
		values := map[string][]float64{}
		for _, seed := range env.Seeds {
			args := []string{"--workload", sp.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(opt.seconds, 'f', -1, 64)}
			if opt.epochs > 0 {
				args = append(args, "--epochs", strconv.Itoa(opt.epochs))
			}
			if opt.machines > 0 {
				args = append(args, "--machines", strconv.Itoa(opt.machines))
			}
			var stdout bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", sp.name, seed, err, stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: last line is not a result: %w", sp.name, seed, err)
			}
			for name, mv := range res.Metrics {
				values[name] = append(values[name], mv.Value)
			}
			wb.Epochs = append(wb.Epochs, res.Attempted)
			// steady-2k and fleet-2x1k see the same rows: where both printed
			// a checkpoint digest for a seed, it must be the same one.
			for _, l := range lines {
				if f := strings.Fields(l); len(f) == 2 && strings.HasPrefix(f[0], "digest@") && !sp.dirty && !sp.scripted {
					key := fmt.Sprintf("seed %d %s", seed, f[0])
					if digests[key] == nil {
						digests[key] = map[string]string{}
					}
					digests[key][sp.name] = f[1]
				}
			}
			fmt.Fprintf(out, "%s seed %d: %d epochs, %.1f epochs/s\n", sp.name, seed, res.Attempted, res.Metrics["epochs_per_s"].Value)
		}
		for _, d := range endToEnd {
			v := values[d.Name]
			sd := spread{Unit: d.Unit, Median: median(v), Bound: d.Bound, Values: v}
			if len(v) >= 2 {
				sd.Q1, sd.Q3 = quartiles(v)
				sd.Spread = (sd.Q3 - sd.Q1) / sd.Median
			}
			wb.Metrics[d.Name] = sd
			verdict := "ok"
			if sd.Spread > d.Bound && d.Name != "setup_s" {
				verdict = "SPREAD EXCEEDS BOUND"
				failures = append(failures, fmt.Sprintf("%s %s: spread %.3f > bound %.2f", sp.name, d.Name, sd.Spread, d.Bound))
			}
			fmt.Fprintf(out, "  %-14s median %12.4f %-4s q1 %12.4f q3 %12.4f spread %.3f bound %.2f %s\n",
				d.Name, sd.Median, d.Unit, sd.Q1, sd.Q3, sd.Spread, d.Bound, verdict)
		}
		baseline[sp.name] = wb
	}
	for key, by := range digests {
		var first string
		for name, d := range by {
			if first == "" {
				first = d
			}
			if d != first {
				failures = append(failures, fmt.Sprintf("%s differs across workloads: %v (%s)", key, by, name))
				break
			}
		}
	}
	if baselinePath != "" {
		b, err := json.MarshalIndent(struct {
			Environment environment                 `json:"environment"`
			Workloads   map[string]workloadBaseline `json:"workloads"`
		}{env, baseline}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(baselinePath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("repeat check failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
