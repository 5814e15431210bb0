package main

import (
	"math"
	"runtime"
	"time"

	"dcfp/internal/core"
	"dcfp/internal/fleet"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
	"dcfp/internal/quantile"
	"dcfp/internal/sla"
)

// replayer repeats, on instances the benchmark owns, the calls the pipeline
// makes into each layer for an epoch, over the same rows, and records a span
// around each. The replays run after the timed call, so they cost wall time
// but never enter an end-to-end number.
type replayer struct {
	tr   *tracer
	spec spec
	cfg  monitor.Config

	agg    *metrics.Aggregator
	track  *metrics.QuantileTrack
	prev   [][3]float64
	normal []bool // per track epoch: the sla replay saw no crisis
	exact  []*quantile.Exact
	cols   [][]float64 // the epoch's finite cells, one column per metric
	viol   []bool
	report []bool

	dropped, gaps, nonReporting, machinesDue      int
	insertNS, insertValues, queryNS, queryMetrics int64

	// The monitor's feature-selection input, mirrored: the last RawPad idle
	// epochs' rows, then every row of the open crisis, labelled by the sla
	// replay. Scripted workload only.
	ring     []ringSlot
	fsX      [][]float64
	fsY      []int
	inCrisis bool
	selRows  []float64

	// parallel is a second monitor with Workers = nproc fed the same rows:
	// the ROADMAP's fan-out probe. Clean single-node workload only.
	parallel *monitor.Monitor

	problems
}

type ringSlot struct {
	rows [][]float64
	viol []bool
}

func newReplayer(p *pipeline, tr *tracer) (*replayer, error) {
	nm := p.cfg.Catalog.Len()
	r := &replayer{tr: tr, spec: p.spec, cfg: p.cfg, cols: make([][]float64, nm)}
	var err error
	if r.agg, err = metrics.NewAggregator(nm, func() quantile.Estimator { return quantile.NewExact() }); err != nil {
		return nil, err
	}
	if r.track, err = metrics.NewQuantileTrack(nm); err != nil {
		return nil, err
	}
	for m := 0; m < nm; m++ {
		r.exact = append(r.exact, quantile.NewExact())
	}
	if !p.spec.dirty && !p.spec.scripted && p.spec.shards == 0 {
		cfg := monitorConfig(p.stream, runtime.NumCPU())
		if r.parallel, err = monitor.New(cfg); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// ingest replays the ingest layers over one epoch's rows and returns the sla
// replay's status. monEpoch is the monitor's epoch count, used once to align
// the benchmark's quantile track with the monitor's.
func (r *replayer) ingest(parent int, epoch int64, rows [][]float64, monEpoch int) (sla.EpochStatus, error) {
	if cap(r.viol) < len(rows) {
		r.viol, r.report = make([]bool, len(rows)), make([]bool, len(rows))
	}
	viol, reporting := r.viol[:len(rows)], r.report[:len(rows)]
	r.machinesDue += r.spec.machines

	var dropped int
	err := r.tr.timed("metrics.filter", parent, epoch, func() (err error) {
		dropped, err = r.agg.ObserveBatchFiltered(0, rows, reporting)
		return err
	})
	if err != nil {
		return sla.EpochStatus{}, err
	}
	r.dropped += dropped
	nonReporting := r.spec.machines - len(rows)
	for _, ok := range reporting {
		if !ok {
			nonReporting++
		}
	}
	r.nonReporting += nonReporting

	var summary [][3]float64
	var gaps int
	err = r.tr.timed("metrics.summarize", parent, epoch, func() (err error) {
		summary, gaps, err = r.agg.SummarizeLenient(r.prev)
		return err
	})
	if err != nil {
		return sla.EpochStatus{}, err
	}
	r.gaps += gaps
	for m, s := range summary {
		for _, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.problem("epoch %d: summary of metric %d is not finite", epoch, m)
			}
		}
	}
	r.prev = summary
	// The first replay back-fills the track to the monitor's length, so
	// ComputeThresholds sorts windows as long as the monitor's own.
	for r.track.NumEpochs() < monEpoch-1 {
		if err := r.track.AppendEpoch(summary); err != nil {
			return sla.EpochStatus{}, err
		}
		r.normal = append(r.normal, true)
	}
	if err := r.track.AppendEpoch(summary); err != nil {
		return sla.EpochStatus{}, err
	}

	var status sla.EpochStatus
	err = r.tr.timed("sla.evaluate", parent, epoch, func() (err error) {
		status, err = r.cfg.SLA.EvaluateMasked(rows, viol, reporting)
		return err
	})
	if err != nil {
		return status, err
	}
	r.normal = append(r.normal, !status.InCrisis)

	// The estimator alone: the epoch's columns into Exact, then the three
	// tracked quantiles out (the first Query pays the lazy sort).
	for m := range r.cols {
		r.cols[m] = r.cols[m][:0]
	}
	for _, row := range rows {
		for m, v := range row {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				r.cols[m] = append(r.cols[m], v)
			}
		}
	}
	t0 := time.Now()
	for m, col := range r.cols {
		r.exact[m].InsertBatch(col)
		r.insertValues += int64(len(col))
	}
	t1 := time.Now()
	for m := range r.cols {
		if r.exact[m].Count() > 0 {
			if _, err := quantile.Summarize(r.exact[m]); err != nil {
				return status, err
			}
		}
	}
	t2 := time.Now()
	r.tr.add("quantile.insert", parent, epoch, -1, t0, t1)
	r.tr.add("quantile.query", parent, epoch, -1, t1, t2)
	r.insertNS += int64(t1.Sub(t0))
	r.queryNS += int64(t2.Sub(t1))
	r.queryMetrics += int64(len(r.cols))
	for _, e := range r.exact {
		e.Reset()
	}
	return status, nil
}

// thresholds replays the refresh the monitor just did.
func (r *replayer) thresholds(parent int, epoch int64) error {
	isNormal := func(e metrics.Epoch) bool { return r.normal[e] }
	end := metrics.Epoch(r.track.NumEpochs() - 1)
	return r.tr.timed("metrics.thresholds", parent, epoch, func() error {
		_, err := metrics.ComputeThresholds(r.track, isNormal, end, r.cfg.Thresholds)
		return err
	})
}

// selection mirrors the monitor's crisis sample collection from the report
// stream and, on the epoch a crisis closes, replays core.PerCrisisMetrics
// over the mirrored samples.
func (r *replayer) selection(parent int, epoch int64, rows [][]float64, rep *monitor.EpochReport) {
	viol := r.viol[:len(rows)]
	switch {
	case rep.CrisisActive:
		collect := func(rows [][]float64, viol []bool) {
			for i, row := range rows {
				r.fsX = append(r.fsX, append([]float64(nil), row...))
				r.fsY = append(r.fsY, label(viol[i]))
			}
		}
		if !r.inCrisis {
			r.inCrisis = true
			for _, slot := range r.ring {
				collect(slot.rows, slot.viol)
			}
			// The monitor collects the detection epoch in beginCrisis and
			// again with every other active epoch; so does the mirror.
			collect(rows, viol)
		}
		collect(rows, viol)
		return
	case r.inCrisis:
		r.inCrisis = false
		r.selRows = append(r.selRows, float64(len(r.fsX)))
		samples := core.CrisisSamples{X: r.fsX, Y: r.fsY}
		err := r.tr.timed("core.selection", parent, epoch, func() error {
			_, err := core.PerCrisisMetrics(samples, r.cfg.Selection.PerCrisisTopK)
			return err
		})
		if err != nil {
			r.problem("epoch %d: selection replay: %v", epoch, err)
		}
		r.fsX, r.fsY = nil, nil
	}
	// Idle epoch (including the one that closed a crisis): feed the ring.
	slot := ringSlot{viol: append([]bool(nil), viol...)}
	for _, row := range rows {
		slot.rows = append(slot.rows, append([]float64(nil), row...))
	}
	if len(r.ring) == r.cfg.RawPad {
		r.ring = r.ring[1:]
	}
	r.ring = append(r.ring, slot)
}

func label(v bool) int {
	if v {
		return 1
	}
	return 0
}

// frames replays the codec over the bytes each shard shipped.
func (r *replayer) frames(parent int, epoch int64, results []shipResult) {
	for s, res := range results {
		if res.frame == nil {
			continue
		}
		t0 := time.Now()
		f, err := fleet.DecodeFrame(res.frame)
		t1 := time.Now()
		if err != nil {
			r.problem("epoch %d: shard %d's frame does not decode: %v", epoch, s, err)
			continue
		}
		_, err = f.Encode()
		t2 := time.Now()
		if err != nil {
			r.problem("epoch %d: shard %d's frame does not re-encode: %v", epoch, s, err)
			continue
		}
		r.tr.add("fleet.decode", parent, epoch, s, t0, t1)
		r.tr.add("fleet.encode", parent, epoch, s, t1, t2)
	}
}

// observeParallel feeds the fan-out probe monitor.
func (r *replayer) observeParallel(parent int, epoch int64, rows [][]float64) error {
	if r.parallel == nil {
		return nil
	}
	return r.tr.timed("monitor.observe_parallel", parent, epoch, func() error {
		_, err := r.parallel.ObserveEpoch(rows)
		return err
	})
}
