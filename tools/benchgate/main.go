// Command benchgate guards the hot-path benchmarks against performance
// regressions. It runs the steady-state ingestion, epoch-generation,
// fleet wire-codec and per-crisis feature-selection benchmarks (`go test -bench
// 'ObserveEpoch|EpochGen|FrameCodec|FleetEpochThroughput|PerCrisisSelection'
// -benchmem`), records every result in a JSON baseline (benchmark name → ns/op, B/op,
// allocs/op), and exits non-zero when any benchmark's ns/op or allocs/op
// regresses beyond its tolerance against the committed baseline, or when a
// benchmark runs without a committed baseline entry (so new benchmarks
// cannot land ungated — refresh with -update). Allocation counts are
// near-deterministic, so the allocs gate uses a tighter fractional tolerance
// plus a two-alloc absolute grace for tiny baselines.
//
// Usage:
//
//	go run ./tools/benchgate            # gate against BENCH_5.json, then rewrite it
//	go run ./tools/benchgate -update    # refresh the baseline without gating
//
// Benchmark names are recorded without the trailing -GOMAXPROCS suffix so a
// baseline measured on an N-core box still matches on CI. ns/op is taken as
// the minimum across -count runs — the standard way to strip scheduler noise
// from a shared runner.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's recorded operating point.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchLine matches `BenchmarkName-8  100  12345 ns/op  678 B/op  9 allocs/op`,
// tolerating extra value/unit columns between ns/op and B/op — SetBytes adds
// `328.73 MB/s` and ReportMetric adds custom units like `1815 frames/s`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([\d.]+) ns/op(?:\s+[\d.]+ \S+)*?\s+([\d.]+) B/op\s+([\d.]+) allocs/op`)

// gomaxprocsSuffix strips the -N procs suffix Go appends to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	var (
		baseline  = flag.String("baseline", "BENCH_5.json", "baseline file to gate against and rewrite")
		tolerance = flag.Float64("tolerance", 0.05, "allowed fractional ns/op regression before failing")
		allocTol  = flag.Float64("alloc-tolerance", 0.10, "allowed fractional allocs/op regression (plus 2 allocs grace) before failing")
		count     = flag.Int("count", 3, "benchmark repetitions; the minimum ns/op is recorded")
		benchtime = flag.String("benchtime", "", "optional -benchtime passed through to go test")
		update    = flag.Bool("update", false, "rewrite the baseline without gating")
	)
	flag.Parse()

	old, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}

	args := []string{"test", "-run", "^$", "-bench", "ObserveEpoch|EpochGen|FrameCodec|FleetEpochThroughput|PerCrisisSelection",
		"-benchmem", "-count", strconv.Itoa(*count)}
	if *benchtime != "" {
		args = append(args, "-benchtime", *benchtime)
	}
	args = append(args, ".", "./internal/monitor/", "./internal/dcsim/", "./internal/fleet/")
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: go %s: %v\n%s", strings.Join(args, " "), err, out)
		os.Exit(1)
	}
	fmt.Print(string(out))

	cur := parse(string(out))
	if len(cur) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results parsed")
		os.Exit(1)
	}
	if err := save(*baseline, cur); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchgate: wrote %s (%d benchmarks)\n", *baseline, len(cur))

	if *update || old == nil {
		return
	}
	failed := false
	names := make([]string, 0, len(old))
	for name := range old {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		was := old[name]
		now, ok := cur[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: present in baseline but not in this run\n", name)
			failed = true
			continue
		}
		limit := was.NsPerOp * (1 + *tolerance)
		if now.NsPerOp > limit {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%%\n",
				name, now.NsPerOp, was.NsPerOp, *tolerance*100)
			failed = true
		}
		allocLimit := was.AllocsPerOp*(1+*allocTol) + 2
		if now.AllocsPerOp > allocLimit {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: %.0f allocs/op exceeds baseline %.0f allocs/op (limit %.0f)\n",
				name, now.AllocsPerOp, was.AllocsPerOp, allocLimit)
			failed = true
		}
	}
	// A committed benchmark with no baseline entry would run ungated
	// forever; force a deliberate -update instead.
	curNames := make([]string, 0, len(cur))
	for name := range cur {
		curNames = append(curNames, name)
	}
	sort.Strings(curNames)
	for _, name := range curNames {
		if _, ok := old[name]; !ok {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: ran without a baseline entry (run with -update to baseline it)\n", name)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("benchgate: all %d baselined benchmarks within %.0f%% ns/op and %.0f%% allocs/op of baseline\n",
		len(old), *tolerance*100, *allocTol*100)
}

// parse extracts the best (minimum-ns) result per benchmark name.
func parse(out string) map[string]Result {
	results := map[string]Result{}
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		ns, _ := strconv.ParseFloat(m[2], 64)
		bs, _ := strconv.ParseFloat(m[3], 64)
		al, _ := strconv.ParseFloat(m[4], 64)
		if prev, ok := results[name]; !ok || ns < prev.NsPerOp {
			results[name] = Result{NsPerOp: ns, BytesPerOp: bs, AllocsPerOp: al}
		}
	}
	return results
}

func load(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out map[string]Result
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return out, nil
}

func save(path string, results map[string]Result) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
