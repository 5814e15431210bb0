package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runSmall runs one workload at smoke size and returns its result and the
// lines it printed before it.
func runSmall(t *testing.T, out string, args ...string) (result, []string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--machines", "40", "--epochs", "40", "--out", out}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("bench %v: last line %q: %v", args, lines[len(lines)-1], err)
	}
	return res, lines[:len(lines)-1]
}

// TestSmoke runs all four workloads in both modes at smoke size and holds
// their output to the contract: exactly the named metrics, correct outputs,
// no failed epochs, and one digest wherever runs must agree.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	warmupDigest := map[string]string{}
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			res, lines := runSmall(t, out, "--workload", w.name, "--trace", mode.trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 40 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.name, mode.trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(mode.defs) {
				t.Errorf("%s trace=%s: %d metrics, contract has %d", w.name, mode.trace, len(res.Metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				mv, ok := res.Metrics[d.Name]
				if !ok || mv.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s: got %+v (present %v), want unit %s", w.name, mode.trace, d.Name, mv, ok, d.Unit)
				}
				if mode.trace == "0" && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, d.Name, mv.Value)
				}
			}
			// The same seed's rows reach steady-2k and fleet-2x1k, traced or
			// not: their report streams must chain to one digest.
			for _, l := range lines {
				if f := strings.Fields(l); len(f) == 2 && f[0] == "digest@100" {
					key := w.name
					if w.shards > 0 {
						key = "steady-2k"
					}
					if prev, ok := warmupDigest[key]; ok && prev != f[1] {
						t.Errorf("%s trace=%s: digest@100 %s, an equivalent run had %s", w.name, mode.trace, f[1], prev)
					}
					warmupDigest[key] = f[1]
				}
			}
		}
		checkSpans(t, filepath.Join(out, w.name+".spans.jsonl"))
	}
	if len(warmupDigest) != 3 {
		t.Errorf("digests seen for %d stream shapes, want 3: %v", len(warmupDigest), warmupDigest)
	}
}

// checkSpans holds a span file to its format: IDs count up from 1, a parent
// precedes its children and belongs to the same epoch, no span ends before
// it starts.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for i, s := range spans {
		if s.ID != i+1 || s.Parent >= s.ID || s.End < s.Start {
			t.Fatalf("%s: malformed span %+v at line %d", path, s, i+1)
		}
		if s.Parent > 0 && spans[s.Parent-1].Epoch != s.Epoch {
			t.Fatalf("%s: span %+v under parent of epoch %d", path, s, spans[s.Parent-1].Epoch)
		}
	}
}

// TestTimeline checks --timeline-output writes one row per measured epoch.
func TestTimeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timeline.csv")
	res, _ := runSmall(t, t.TempDir(), "--workload", "dirty-2k", "--timeline-output", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(data)), "\n")
	if rows[0] != "workload,epoch,kind,latency_ms,frame_bytes,heap_inuse_mb" || len(rows)-1 != res.Attempted {
		t.Errorf("timeline has header %q and %d rows for %d epochs", rows[0], len(rows)-1, res.Attempted)
	}
}

// TestContract keeps the committed BENCHMARK.json equal to the program's own
// metric and workload tables.
func TestContract(t *testing.T) {
	want, err := contractJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `bench --contract`; regenerate it")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
