package main

import (
	"encoding/json"
	"fmt"
)

// runSeconds is how long one driver run measures (BENCHMARK.json
// run_seconds). 15 s keeps the driver's 92 runs, three set-ups each, inside
// its 57-minute cap on a 2-vCPU box with room to spare.
const runSeconds = 15

// metricDef names one metric of the benchmark contract.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only, never 0 there
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the pipeline sees, reported by every workload's
// untraced run. Each is defined (and non-zero) on all four workloads, which
// is why the crisis-only and fleet-only numbers of the issue's table live in
// perLayer instead; see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"epochs_per_s", "1/s", higher, 0.25},
	{"epoch_ms_p50", "ms", lower, 0.25},
	{"epoch_ms_p90", "ms", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// perLayer is reported by the traced run, <module>.<metric>. A metric that
// does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "dcsim.next_ms_p50", Unit: "ms", Better: lower},
	{Name: "dcsim.fault_next_ms_p50", Unit: "ms", Better: lower},
	{Name: "metrics.filter_ms_p50", Unit: "ms", Better: lower},
	{Name: "metrics.summarize_ms_p50", Unit: "ms", Better: lower},
	{Name: "sla.evaluate_ms_p50", Unit: "ms", Better: lower},
	{Name: "quantile.insert_ns_per_value", Unit: "ns", Better: lower},
	{Name: "quantile.query_ns_per_metric", Unit: "ns", Better: lower},
	{Name: "metrics.thresholds_ms_p50", Unit: "ms", Better: lower},
	{Name: "metrics.dropped_cells_per_epoch", Unit: "count", Better: lower},
	{Name: "metrics.summary_gaps_per_epoch", Unit: "count", Better: lower},
	{Name: "metrics.nonreporting_share", Unit: "share", Better: lower},
	{Name: "monitor.observe_ms_p50.steady", Unit: "ms", Better: lower},
	{Name: "monitor.observe_ms_p50.refresh", Unit: "ms", Better: lower},
	{Name: "monitor.observe_ms_p50.detect", Unit: "ms", Better: lower},
	{Name: "monitor.observe_ms_p50.identify", Unit: "ms", Better: lower},
	{Name: "monitor.observe_ms_p50.crisis_tail", Unit: "ms", Better: lower},
	{Name: "monitor.observe_ms_p50.crisis_end", Unit: "ms", Better: lower},
	{Name: "monitor.observe_ms_p99", Unit: "ms", Better: lower},
	{Name: "monitor.observe_ms_max", Unit: "ms", Better: lower},
	{Name: "monitor.self_ms_p50", Unit: "ms", Better: lower},
	{Name: "monitor.ingest_buffered", Unit: "count", Better: lower},
	{Name: "monitor.ingest_multi_report", Unit: "count", Better: lower},
	{Name: "monitor.ingest_no_report", Unit: "count", Better: lower},
	{Name: "monitor.degraded_epochs", Unit: "count", Better: lower},
	{Name: "monitor.parallel_speedup", Unit: "ratio", Better: higher},
	{Name: "monitor.parallel_nproc", Unit: "count", Better: higher},
	{Name: "core.selection_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.selection_rows", Unit: "count", Better: lower},
	{Name: "ident.identify_extra_ms_p50", Unit: "ms", Better: lower},
	{Name: "ident.accuracy", Unit: "share", Better: higher},
	{Name: "ident.recurrences", Unit: "count", Better: higher},
	{Name: "fleet.epoch_frame_ms_p50", Unit: "ms", Better: lower},
	{Name: "fleet.encode_ms_p50", Unit: "ms", Better: lower},
	{Name: "fleet.decode_ms_p50", Unit: "ms", Better: lower},
	{Name: "fleet.ship_ms_p50", Unit: "ms", Better: lower},
	{Name: "fleet.handler_ms_p50", Unit: "ms", Better: lower},
	{Name: "fleet.http_ms_p50", Unit: "ms", Better: lower},
	{Name: "fleet.merge_ms_p50", Unit: "ms", Better: lower},
	{Name: "fleet.shard_skew_ms_p50", Unit: "ms", Better: lower},
	{Name: "fleet.frame_bytes_p50", Unit: "B", Better: lower},
	{Name: "fleet.frame_bytes_per_epoch", Unit: "B", Better: lower},
	{Name: "fleet.bytes_per_machine", Unit: "B", Better: lower},
	{Name: "fleet.ship_retries", Unit: "count", Better: lower},
	{Name: "fleet.throttled", Unit: "count", Better: lower},
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: lower},
	{Name: "runtime.alloc_kb_per_epoch", Unit: "kB", Better: lower},
	{Name: "runtime.heap_inuse_mb_end", Unit: "MB", Better: lower},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "bench.traced_epochs", Unit: "count", Better: higher},
}

// contractJSON renders BENCHMARK.json from the tables above, so the
// committed file and the program cannot name different metrics (the smoke
// test compares them).
func contractJSON() ([]byte, error) {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	c := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, workloadDef{w.name, w.why})
	}
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("rendering contract: %w", err)
	}
	return append(b, '\n'), nil
}
