package fleet

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"time"

	"dcfp/internal/crisis"
	"dcfp/internal/metrics"
	"dcfp/internal/sla"
	"dcfp/internal/telemetry"
)

// AggregatorConfig assembles a shard-side Aggregator.
type AggregatorConfig struct {
	// Shard is this process's shard index in [0, Shards).
	Shard int
	// Shards is the fleet's shard count; Machines its machine count.
	Shards   int
	Machines int
	// NumMetrics is the catalog width (values per sample row).
	NumMetrics int
	// SLA holds the KPIs and crisis rule; the shard evaluates its machine
	// slice locally and ships the partial status.
	SLA sla.Config
	// CoordinatorURL is the coordinator's base URL ("http://host:port").
	CoordinatorURL string
	// Client overrides the HTTP client (nil = 10 s timeout default).
	Client *http.Client
	// MaxAttempts bounds delivery attempts per frame across transport
	// errors (default 8); throttle waits do not consume attempts.
	MaxAttempts int
	// RetryBackoff is the initial retry/throttle sleep, doubling per
	// attempt up to 32x with ±50% jitter (default 100 ms).
	RetryBackoff time.Duration
	// MaxElapsed bounds one ShipEpoch call's total wall clock across retries
	// and throttle waits; past it the frame is abandoned (transport
	// errors) or handed back throttled for the caller to buffer. Default
	// 45 s; < 0 disables the deadline.
	MaxElapsed time.Duration
	// BreakerThreshold is how many consecutive transport failures (breaker
	// state persists across ShipEpoch calls) open the circuit breaker, after
	// which ShipEpoch fails fast with ErrBreakerOpen until BreakerCooldown
	// admits a half-open probe. Default 5; < 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker blocks before the next
	// probe (default 5 s).
	BreakerCooldown time.Duration
	// Telemetry optionally receives dcfp_fleet_* shipping metrics. When
	// set, every frame also carries a full snapshot of this registry for
	// coordinator-side federation (dcfp_fleet_shard_*).
	Telemetry *telemetry.Registry
	// Tracer optionally records one observe_shard trace per epoch frame
	// (ingest/filter/encode plus the ship attempt) under the
	// fleet-wide epoch trace ID; the pre-ship spans ride in the frame so
	// the coordinator can stitch them into its merge_epoch trace.
	Tracer *telemetry.Tracer
}

// Aggregator is the shard-side half of two-tier aggregation: it runs the
// liveness scan and the SLA check over the shard's slice of each epoch's
// fleet matrix — the single-node monitor's accounting, machine for machine —
// and ships the reporting machines' cells by metric column, the masks and the
// partial SLA status to the coordinator as one frame per epoch. It carries no
// state from one epoch to the next beyond reused scratch. Not safe
// for concurrent use.
type Aggregator struct {
	cfg    AggregatorConfig
	asn    Assignment
	client *http.Client
	brk    *breaker
	jitter *rand.Rand
	// watermark is the merge watermark the last ack Drain saw carried; a
	// lower one means the coordinator restarted from an older checkpoint.
	watermark metrics.Epoch

	bytesTx    *telemetry.Counter
	shipSec    *telemetry.Histogram
	frameBytes *telemetry.Histogram
	framesOK   *telemetry.Counter
	framesRe   *telemetry.Counter
	framesEr   *telemetry.Counter
	abandoned  *telemetry.Counter

	// open holds the per-epoch observe_shard traces whose ship span is
	// still in flight (frame built but not yet delivered or abandoned).
	open map[metrics.Epoch]*openShip
	// cols is EpochFrame's column scratch, reused every epoch.
	cols []float64
}

// openShip is an observe_shard trace waiting on its ship outcome. Delivery
// attempts and throttle waits accumulate across ShipEpoch calls (a buffered
// frame may be re-shipped several times before landing).
type openShip struct {
	tr        *telemetry.Trace
	ship      *telemetry.Span
	attempts  int
	throttles int
}

// maxOpenTraces bounds the open observe_shard traces an aggregator keeps
// while frames sit in the caller's replay ring; past it the oldest trace
// is closed as unshipped.
const maxOpenTraces = 64

// NewAggregator validates the config and computes the shard's initial
// static assignment.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	if cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
		return nil, fmt.Errorf("fleet: shard %d out of %d", cfg.Shard, cfg.Shards)
	}
	if cfg.NumMetrics <= 0 {
		return nil, fmt.Errorf("fleet: NumMetrics %d must be positive", cfg.NumMetrics)
	}
	if err := cfg.SLA.Validate(cfg.NumMetrics); err != nil {
		return nil, err
	}
	asn, err := StaticAssignment(cfg.Machines, cfg.Shards)
	if err != nil {
		return nil, err
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	cfg.MaxElapsed = cmp.Or(cfg.MaxElapsed, 45*time.Second)
	cfg.BreakerThreshold = cmp.Or(cfg.BreakerThreshold, 5)
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	g := &Aggregator{
		cfg: cfg, asn: asn, client: cfg.Client,
		// Backoff jitter decorrelates shard retry storms; seeding off the
		// shard index keeps runs reproducible without synchronizing shards.
		jitter: rand.New(rand.NewSource(7919*int64(cfg.Shard) + 1)),
	}
	if cfg.BreakerThreshold > 0 {
		g.brk = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Telemetry)
	}
	if g.client == nil {
		g.client = &http.Client{Timeout: 10 * time.Second}
	}
	if r := cfg.Telemetry; r != nil {
		g.bytesTx = r.Counter("dcfp_fleet_bytes_shipped_total",
			"Encoded frame bytes shipped to the coordinator.")
		g.shipSec = r.Histogram("dcfp_fleet_ship_seconds",
			"Frame delivery latency including retries.", telemetry.TimeBuckets())
		g.frameBytes = r.Histogram("dcfp_fleet_frame_bytes",
			"Encoded size of frames built by EpochFrame.",
			[]float64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20})
		g.framesOK = r.Counter("dcfp_fleet_frames_shipped_total",
			"Frame delivery outcomes.", telemetry.Label{Key: "result", Value: "ok"})
		g.framesRe = r.Counter("dcfp_fleet_frames_shipped_total",
			"Frame delivery outcomes.", telemetry.Label{Key: "result", Value: "stale"})
		g.framesEr = r.Counter("dcfp_fleet_frames_shipped_total",
			"Frame delivery outcomes.", telemetry.Label{Key: "result", Value: "error"})
		g.abandoned = r.Counter("dcfp_fleet_ship_abandoned_total",
			"Frames given up on after exhausting the retry budget or elapsed deadline.")
	}
	return g, nil
}

// Assignment returns the shard's current view of the fleet assignment.
func (g *Aggregator) Assignment() Assignment { return g.asn.Clone() }

// Adopt installs a newer assignment (acks carry one when the shard's view
// is stale). Older or same-version assignments are ignored.
func (g *Aggregator) Adopt(asn Assignment) {
	if asn.Version > g.asn.Version && asn.Machines == g.cfg.Machines {
		g.asn = asn.Clone()
	}
}

// EpochFrame ingests the shard's slice of one fleet epoch and returns the
// encoded wire frame. rows must span the whole fleet (the shard slices out
// its assigned ranges); active optionally carries the simulator's
// ground-truth crisis for the coordinator's operator loop. A failed call
// leaves nothing behind: its observe_shard trace ends with an error attr and
// the next frame is what a fresh aggregator would build.
func (g *Aggregator) EpochFrame(e metrics.Epoch, rows [][]float64, active *crisis.Instance) (data []byte, err error) {
	tr := g.cfg.Tracer.StartTraceID("observe_shard", telemetry.EpochTraceID(int64(e)))
	tr.SetAttr("shard", int64(g.cfg.Shard))
	tr.SetAttr("epoch", int64(e))
	defer func() {
		if err != nil {
			tr.SetAttr("error", 1)
			tr.End()
		}
	}()
	if len(rows) != g.cfg.Machines {
		return nil, fmt.Errorf("fleet: epoch has %d rows, fleet has %d machines", len(rows), g.cfg.Machines)
	}
	f := &Frame{
		Shard:         g.cfg.Shard,
		Epoch:         e,
		AssignVersion: g.asn.Version,
		Machines:      g.cfg.Machines,
		NumMetrics:    g.cfg.NumMetrics,
		Active:        active,
	}
	sp := tr.StartSpan("ingest")
	var statuses []sla.EpochStatus
	// The liveness scan lays each block's reporting rows out by metric
	// column as it goes, in the aggregator's scratch: the frame is encoded
	// before EpochFrame returns, so one slab serves every epoch. The scan
	// writes it a cell per column per row; clearing it first brings it into
	// cache in one sequential pass, where the scattered writes would miss
	// (traced fleet-2x1k frame build 0.87 → 0.65 ms).
	owned := 0
	for _, r := range g.asn.Ranges[g.cfg.Shard] {
		owned += r.Len()
	}
	g.cols = slices.Grow(g.cols[:0], owned*g.cfg.NumMetrics)[:owned*g.cfg.NumMetrics]
	clear(g.cols)
	free := g.cols
	for _, r := range g.asn.Ranges[g.cfg.Shard] {
		fsp := tr.StartSpan("filter")
		fsp.SetAttr("lo", int64(r.Lo))
		fsp.SetAttr("hi", int64(r.Hi))
		sub := rows[r.Lo:r.Hi]
		viol, reporting := make([]bool, len(sub)), make([]bool, len(sub))
		cols, dropped, err := metrics.ScanBatchFiltered(sub, g.cfg.NumMetrics, reporting, free)
		if err != nil {
			return nil, err
		}
		free = free[len(cols):]
		status, err := g.cfg.SLA.EvaluateMasked(sub, viol, reporting)
		if err != nil {
			return nil, err
		}
		f.Dropped += dropped
		fsp.SetAttr("dropped_cells", int64(dropped))
		statuses = append(statuses, status)
		f.Blocks = append(f.Blocks, Block{Lo: r.Lo, Viol: viol, Reporting: reporting, Cols: cols})
		fsp.End()
	}
	f.Status = g.cfg.SLA.MergeStatuses(statuses)
	sp.SetAttr("blocks", int64(len(f.Blocks)))
	sp.End()
	// Observability section: the trace context and the spans completed so
	// far ride in the frame (the encode/ship spans below necessarily
	// postdate the snapshot and stay shard-local), plus a full registry
	// snapshot for coordinator-side federation.
	f.TraceID = tr.TraceID()
	f.Spans = tr.CompletedSpans()
	if g.cfg.Telemetry != nil {
		f.Metrics = g.cfg.Telemetry.Gather()
	}
	sp = tr.StartSpan("encode")
	if data, err = f.Encode(); err != nil {
		return nil, err
	}
	sp.SetAttr("bytes", int64(len(data)))
	sp.End()
	if g.frameBytes != nil {
		g.frameBytes.Observe(float64(len(data)))
	}
	if tr != nil {
		g.evictOpenTraces()
		if g.open == nil {
			g.open = make(map[metrics.Epoch]*openShip)
		}
		g.open[e] = &openShip{tr: tr, ship: tr.StartSpan("ship")}
	}
	return data, nil
}

// evictOpenTraces closes the oldest open observe_shard traces once the
// retry buffer has outrun the bound, marking them unshipped.
func (g *Aggregator) evictOpenTraces() {
	for len(g.open) >= maxOpenTraces {
		oldest, ok := metrics.Epoch(0), false
		for e := range g.open {
			if !ok || e < oldest {
				oldest, ok = e, true
			}
		}
		ot := g.open[oldest]
		delete(g.open, oldest)
		ot.ship.SetAttr("unshipped", 1)
		ot.ship.End()
		ot.tr.End()
	}
}

// finishShip closes epoch e's observe_shard trace with the final ship
// outcome. No-op when no trace is open for e.
func (g *Aggregator) finishShip(e metrics.Epoch, ack *Ack, abandoned bool) {
	ot, ok := g.open[e]
	if !ok {
		return
	}
	delete(g.open, e)
	ot.ship.SetAttr("attempts", int64(ot.attempts))
	if ot.throttles > 0 {
		ot.ship.SetAttr("throttle_waits", int64(ot.throttles))
	}
	switch {
	case abandoned:
		ot.ship.SetAttr("abandoned", 1)
	case ack == nil:
	case ack.Stale:
		ot.ship.SetAttr("stale", 1)
	case !ack.OK:
		ot.ship.SetAttr("rejected", 1)
	}
	ot.ship.End()
	ot.tr.End()
}

// NoteShipped closes epoch e's open observe_shard trace as delivered. The
// in-process harnesses use it when they move frames to the coordinator
// directly instead of through ShipEpoch.
func (g *Aggregator) NoteShipped(e metrics.Epoch) {
	g.finishShip(e, &Ack{OK: true}, false)
}

// Bootstrap fetches the coordinator's current assignment and merge
// watermark (GET /fleet/assignment), adopting the assignment if it is
// newer. A restarted shard uses the returned watermark to fast-forward its
// deterministic source past epochs the coordinator has already merged.
func (g *Aggregator) Bootstrap(ctx context.Context) (metrics.Epoch, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		g.cfg.CoordinatorURL+"/fleet/assignment", nil)
	if err != nil {
		return 0, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("fleet: coordinator returned %s", resp.Status)
	}
	ack, err := DecodeAck(body)
	if err != nil {
		return 0, err
	}
	if ack.Assignment != nil {
		g.Adopt(*ack.Assignment)
	}
	return ack.Watermark, nil
}

// ShipEpoch delivers the encoded frame of epoch e to the coordinator,
// retrying transport errors with jittered exponential backoff and waiting
// out throttle acks, all under the MaxElapsed wall-clock budget. It returns
// the final ack; an ack with OK=false is returned without error — the
// coordinator rejected the frame deliberately (or is still throttling at the
// deadline) and retrying the same bytes cannot help. If the ack carries a
// newer assignment it is adopted before returning.
//
// When the circuit breaker is open ShipEpoch fails fast with ErrBreakerOpen
// instead of attempting delivery: a partitioned shard degrades to local
// buffering (the caller keeps the frame and retries next epoch) rather
// than hot-looping against a dead link. Frames given up on after the
// attempt or elapsed budget count toward dcfp_fleet_ship_abandoned_total.
//
// It also accounts the delivery attempts and throttle waits on the epoch's
// open observe_shard trace (an epoch without one, such as -1, has none to
// account) and closes it on a final outcome (delivered, deliberately
// rejected, or abandoned). Transport failures that leave the frame buffered
// for a later retry keep the trace open so the eventual ship span covers the
// frame's whole time in flight.
func (g *Aggregator) ShipEpoch(ctx context.Context, e metrics.Epoch, frame []byte) (*Ack, error) {
	ot := g.open[e]
	t0 := time.Now()
	var deadline time.Time
	if g.cfg.MaxElapsed > 0 {
		deadline = t0.Add(g.cfg.MaxElapsed)
	}
	if !g.brk.allow() {
		return nil, ErrBreakerOpen
	}
	backoff := g.cfg.RetryBackoff
	attempts := 0
	for {
		if ot != nil {
			ot.attempts++
		}
		ack, err := g.post(ctx, frame)
		switch {
		case err != nil:
			attempts++
			g.brk.failure()
			if g.framesEr != nil {
				g.framesEr.Inc()
			}
			if attempts >= g.cfg.MaxAttempts || (!deadline.IsZero() && !time.Now().Before(deadline)) {
				if g.abandoned != nil {
					g.abandoned.Inc()
				}
				g.finishShip(e, nil, true)
				return nil, fmt.Errorf("fleet: abandoning frame after %d attempts over %v: %w",
					attempts, time.Since(t0).Round(time.Millisecond), err)
			}
			if !g.brk.allow() {
				// The breaker opened mid-call (threshold consecutive
				// failures); stop burning the remaining attempts.
				return nil, ErrBreakerOpen
			}
		case ack.Throttle:
			// Ahead of the merge window: same frame, later. Deliberate
			// flow control, not a failure — does not consume attempts, but
			// it does consume the elapsed budget: at the deadline the
			// throttle ack is handed back so the caller buffers the frame
			// instead of camping in ShipEpoch.
			g.brk.success()
			if ot != nil {
				ot.throttles++
			}
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return ack, nil
			}
		default:
			g.brk.success()
			if ack.Assignment != nil {
				g.Adopt(*ack.Assignment)
			}
			if g.bytesTx != nil {
				g.bytesTx.Add(uint64(len(frame)))
				g.shipSec.ObserveSince(t0)
				if ack.Stale {
					g.framesRe.Inc()
				} else if ack.OK {
					g.framesOK.Inc()
				} else {
					g.framesEr.Inc()
				}
			}
			g.finishShip(e, ack, false)
			return ack, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(g.jittered(backoff)):
		}
		if backoff < 32*g.cfg.RetryBackoff {
			backoff *= 2
		}
	}
}

// jittered spreads a backoff uniformly over [0.5d, 1.5d).
func (g *Aggregator) jittered(d time.Duration) time.Duration {
	return d/2 + time.Duration(g.jitter.Int63n(int64(d)))
}

func (g *Aggregator) post(ctx context.Context, frame []byte) (*Ack, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		g.cfg.CoordinatorURL+"/fleet/frame", bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("Content-Length", strconv.Itoa(len(frame)))
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusTooManyRequests, http.StatusConflict, http.StatusRequestEntityTooLarge:
	default:
		return nil, fmt.Errorf("fleet: coordinator returned %s", resp.Status)
	}
	// A deliberate rejection (409, or 413 for a frame over the coordinator's
	// cap) still decodes; it is surfaced as the ack so the caller can decide —
	// retrying identical bytes cannot help.
	return DecodeAck(body)
}
