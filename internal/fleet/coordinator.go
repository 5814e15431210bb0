package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcfp/internal/crisis"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
	"dcfp/internal/telemetry"
)

// CoordinatorConfig assembles a Coordinator.
type CoordinatorConfig struct {
	// Machines and Shards fix the fleet geometry; frames that disagree
	// are rejected.
	Machines int
	Shards   int
	// Monitor receives the merged epochs via ObserveAggregated. The
	// coordinator serializes all access; the monitor must not be driven
	// from elsewhere while the coordinator runs.
	Monitor *monitor.Monitor
	// Window is how many epochs ahead of the merge watermark frames are
	// accepted before the sender is throttled (default 8). It bounds the
	// pending-frame memory to Window * Shards frames.
	Window int
	// FlushAfter is how long the coordinator waits for an epoch's
	// stragglers once its first frame arrived before merging without
	// them; missing shards are synthesized as fully non-reporting, so a
	// large enough dead shard pushes coverage under the monitor's floor
	// and the epoch freezes as degraded. <= 0 disables timed flushing
	// (tests drive ForceFlush explicitly). Default 3 s.
	FlushAfter time.Duration
	// DeadAfterEpochs declares a shard dead once it has been synthesized
	// away for that many consecutive merged epochs, rebalancing its
	// machine ranges onto the survivors. 0 disables death detection:
	// missing shards degrade coverage forever but keep their machines.
	DeadAfterEpochs int
	// OnReport, when set, receives every merged epoch report plus the
	// ground-truth crisis instance carried by the epoch's frames (nil
	// outside simulation). Called with the coordinator lock held — it
	// must not call back into the coordinator.
	OnReport func(rep *monitor.EpochReport, active *crisis.Instance)
	// Telemetry optionally receives the dcfp_fleet_* coordinator metrics
	// and the federated dcfp_fleet_shard_* re-exposition of shard-local
	// registries piggybacked on frames.
	Telemetry *telemetry.Registry
	// Events optionally receives shard lifecycle events.
	Events *telemetry.EventLog
	// Tracer optionally records one merge_epoch trace per merged epoch,
	// grafting the span snapshots shipped in each shard's frame so the
	// /traces endpoint shows one distributed trace per epoch with
	// per-shard timing breakdowns.
	Tracer *telemetry.Tracer
}

// Coordinator is the merge half of two-tier aggregation: it collects one
// frame per live shard per epoch, merges them into its monitor strictly in
// epoch order, and handles late or dead shards by synthesizing their
// machines as non-reporting. Safe for concurrent use.
type Coordinator struct {
	cfg CoordinatorConfig

	mu        sync.Mutex
	asn       Assignment
	watermark metrics.Epoch
	pending   map[metrics.Epoch]map[int]*Frame
	firstAt   map[metrics.Epoch]time.Time
	// arrival records each accepted frame's arrival offset from the
	// epoch's first frame, keyed like pending; merge_epoch traces attach
	// it to the per-shard graft anchors.
	arrival map[metrics.Epoch]map[int]time.Duration
	lastRx  []metrics.Epoch
	missed  []int
	dead    []bool

	bytesRx    *telemetry.Counter
	mergeSec   *telemetry.Histogram
	frames     map[string]*telemetry.Counter
	lag        []*telemetry.Gauge
	up         []*telemetry.Gauge
	lastEpoch  []*telemetry.Gauge
	live       *telemetry.Gauge
	merged     map[string]*telemetry.Counter
	rebalances *telemetry.Counter
	// fed caches the federated dcfp_fleet_shard_* gauge handles keyed by
	// federated name + shard + source label set, so re-exposing a shard
	// snapshot is a map hit per series rather than a registry lookup.
	fed map[string]*telemetry.Gauge
}

// NewCoordinator validates the config and computes the initial static
// assignment.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Monitor == nil {
		return nil, fmt.Errorf("fleet: coordinator needs a monitor")
	}
	asn, err := StaticAssignment(cfg.Machines, cfg.Shards)
	if err != nil {
		return nil, err
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	cfg.FlushAfter = cmp.Or(cfg.FlushAfter, 3*time.Second)
	c := &Coordinator{
		cfg:     cfg,
		asn:     asn,
		pending: make(map[metrics.Epoch]map[int]*Frame),
		firstAt: make(map[metrics.Epoch]time.Time),
		arrival: make(map[metrics.Epoch]map[int]time.Duration),
		lastRx:  make([]metrics.Epoch, cfg.Shards),
		missed:  make([]int, cfg.Shards),
		dead:    make([]bool, cfg.Shards),
	}
	for s := range c.lastRx {
		c.lastRx[s] = -1
	}
	if r := cfg.Telemetry; r != nil {
		c.bytesRx = r.Counter("dcfp_fleet_bytes_received_total",
			"Encoded frame bytes received from shard aggregators.")
		c.mergeSec = r.Histogram("dcfp_fleet_merge_seconds",
			"Coordinator time to merge one epoch's shard partials.", telemetry.TimeBuckets())
		c.frames = map[string]*telemetry.Counter{}
		for _, res := range []string{"accepted", "stale", "throttled", "rejected", "corrupt"} {
			c.frames[res] = r.Counter("dcfp_fleet_frames_total",
				"Frames received by outcome.", telemetry.Label{Key: "result", Value: res})
		}
		c.lag = make([]*telemetry.Gauge, cfg.Shards)
		c.up = make([]*telemetry.Gauge, cfg.Shards)
		c.lastEpoch = make([]*telemetry.Gauge, cfg.Shards)
		for s := range c.lag {
			sl := telemetry.Label{Key: "shard", Value: strconv.Itoa(s)}
			c.lag[s] = r.Gauge("dcfp_fleet_shard_lag_epochs",
				"Epochs the shard's newest frame trails the merge frontier.", sl)
			c.up[s] = r.Gauge("dcfp_fleet_shard_up",
				"1 while the shard is expected to report, 0 once declared dead.", sl)
			c.up[s].SetInt(1)
			c.lastEpoch[s] = r.Gauge("dcfp_fleet_shard_last_epoch",
				"Newest epoch received from the shard (-1 before its first frame).", sl)
			c.lastEpoch[s].SetInt(-1)
		}
		c.fed = make(map[string]*telemetry.Gauge)
		c.live = r.Gauge("dcfp_fleet_shards_live", "Shards not declared dead.")
		c.merged = map[string]*telemetry.Counter{
			"full": r.Counter("dcfp_fleet_epochs_merged_total",
				"Merged epochs by completeness.", telemetry.Label{Key: "completeness", Value: "full"}),
			"partial": r.Counter("dcfp_fleet_epochs_merged_total",
				"Merged epochs by completeness.", telemetry.Label{Key: "completeness", Value: "partial"}),
		}
		c.rebalances = r.Counter("dcfp_fleet_rebalances_total",
			"Assignment rebalances after shard deaths.")
		c.live.SetInt(int64(c.liveCountLocked()))
	}
	return c, nil
}

// Watermark returns the next epoch the coordinator will merge.
func (c *Coordinator) Watermark() metrics.Epoch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.watermark
}

// Assignment returns the coordinator's current assignment.
func (c *Coordinator) Assignment() Assignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.asn.Clone()
}

func (c *Coordinator) liveCountLocked() int {
	n := 0
	for s := range c.dead {
		if !c.dead[s] {
			n++
		}
	}
	return n
}

// expectedLocked reports whether shard s must contribute a frame for an
// epoch to be complete: alive and owning at least one machine.
func (c *Coordinator) expectedLocked(s int) bool {
	return !c.dead[s] && len(c.asn.Ranges[s]) > 0
}

// HandleFrameBytes ingests one encoded frame and returns the ack (always
// non-nil) plus the matching HTTP status code. Complete epochs are merged
// before the ack is built, so the ack's watermark reflects the frame's own
// effect.
func (c *Coordinator) HandleFrameBytes(data []byte) (*Ack, int) {
	f, err := DecodeFrame(data)
	if err != nil {
		// Damaged payloads (truncation, bit flips, garbage) are counted
		// apart from protocol rejections: a rising corrupt rate points at
		// the transport, not at a misconfigured sender.
		if errors.Is(err, ErrCorrupt) {
			c.countFrame("corrupt")
			return &Ack{Error: err.Error()}, http.StatusBadRequest
		}
		// Bad magic or another frame version: the bytes are intact and the
		// sender is a different build, so a retry cannot help. 409 carries
		// the reason back where 400 would be retried as a transport error.
		c.countFrame("rejected")
		return &Ack{Error: err.Error()}, http.StatusConflict
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bytesRx != nil {
		c.bytesRx.Add(uint64(len(data)))
	}
	ack := &Ack{Watermark: c.watermark}
	if f.AssignVersion < c.asn.Version {
		a := c.asn.Clone()
		ack.Assignment = &a
	}
	switch {
	case f.Shard < 0 || f.Shard >= c.cfg.Shards:
		c.countFrame("rejected")
		ack.Error = fmt.Sprintf("shard %d out of %d", f.Shard, c.cfg.Shards)
		return ack, http.StatusConflict
	case f.Machines != c.cfg.Machines:
		c.countFrame("rejected")
		ack.Error = fmt.Sprintf("frame for %d machines, fleet has %d", f.Machines, c.cfg.Machines)
		return ack, http.StatusConflict
	case c.dead[f.Shard]:
		// A declared-dead shard's machines belong to the survivors now;
		// accepting its frames could double-cover machine ranges.
		c.countFrame("rejected")
		ack.Error = fmt.Sprintf("shard %d was declared dead after %d missed epochs", f.Shard, c.cfg.DeadAfterEpochs)
		return ack, http.StatusConflict
	case f.Epoch < c.watermark:
		c.countFrame("stale")
		c.noteRxLocked(f.Shard, f.Epoch)
		ack.OK, ack.Stale = true, true
		return ack, http.StatusOK
	case f.Epoch >= c.watermark+metrics.Epoch(c.cfg.Window):
		c.countFrame("throttled")
		ack.Throttle = true
		return ack, http.StatusTooManyRequests
	}
	c.countFrame("accepted")
	ep := c.pending[f.Epoch]
	if ep == nil {
		ep = make(map[int]*Frame)
		c.pending[f.Epoch] = ep
		c.firstAt[f.Epoch] = time.Now()
		c.arrival[f.Epoch] = make(map[int]time.Duration)
	}
	if dup := ep[f.Shard]; dup != nil {
		dup.Release()
	}
	ep[f.Shard] = f
	c.arrival[f.Epoch][f.Shard] = time.Since(c.firstAt[f.Epoch])
	c.federateLocked(f)
	c.noteRxLocked(f.Shard, f.Epoch)
	c.advanceLocked()
	if c.cfg.FlushAfter > 0 {
		c.flushLateLocked(time.Now())
	}
	ack.OK = true
	ack.Watermark = c.watermark
	if f.AssignVersion < c.asn.Version {
		a := c.asn.Clone()
		ack.Assignment = &a
	}
	return ack, http.StatusOK
}

func (c *Coordinator) countFrame(result string) {
	if c.frames != nil {
		c.frames[result].Inc()
	}
}

func (c *Coordinator) noteRxLocked(shard int, e metrics.Epoch) {
	if e > c.lastRx[shard] {
		c.lastRx[shard] = e
		if c.lastEpoch != nil {
			c.lastEpoch[shard].SetInt(int64(e))
		}
	}
}

// federateLocked re-exposes one shard's registry snapshot (piggybacked on
// its frame) as coordinator gauges: dcfp_X becomes
// dcfp_fleet_shard_X{shard="N", ...original labels}. Snapshots are full
// rather than deltas, so re-applying one — a retried frame, a duplicate
// delivery, a replay after coordinator restart — is idempotent, and a
// partitioned shard's series simply freeze at their last shipped values
// until the link heals. v2 frames carry no snapshot and are skipped.
func (c *Coordinator) federateLocked(f *Frame) {
	r := c.cfg.Telemetry
	if r == nil || len(f.Metrics) == 0 {
		return
	}
	shard := strconv.Itoa(f.Shard)
	for _, sv := range f.Metrics {
		const prefix = "dcfp_"
		const fedPrefix = "dcfp_fleet_shard_"
		// Only dcfp_-namespaced series federate, and already-federated
		// series never re-federate (an in-process shard sharing the
		// coordinator's registry would otherwise echo them back).
		if !strings.HasPrefix(sv.Name, prefix) || strings.HasPrefix(sv.Name, fedPrefix) {
			continue
		}
		name := fedPrefix + sv.Name[len(prefix):]
		var key strings.Builder
		key.WriteString(name)
		key.WriteByte(0)
		key.WriteString(shard)
		for _, l := range sv.Labels {
			key.WriteByte(0)
			key.WriteString(l.Key)
			key.WriteByte(1)
			key.WriteString(l.Value)
		}
		g, ok := c.fed[key.String()]
		if !ok {
			labels := make([]telemetry.Label, 0, len(sv.Labels)+1)
			labels = append(labels, telemetry.Label{Key: "shard", Value: shard})
			conflict := false
			for _, l := range sv.Labels {
				if l.Key == "shard" {
					conflict = true
					break
				}
				labels = append(labels, l)
			}
			if conflict {
				continue
			}
			g = r.Gauge(name, "Federated shard-local series (see the un-federated name for help).", labels...)
			c.fed[key.String()] = g
		}
		g.Set(sv.Value)
	}
}

// advanceLocked merges epochs as long as the watermark epoch has a frame
// from every expected shard.
func (c *Coordinator) advanceLocked() {
	for {
		ep := c.pending[c.watermark]
		if ep == nil {
			return
		}
		for s := 0; s < c.cfg.Shards; s++ {
			if c.expectedLocked(s) && ep[s] == nil {
				return
			}
		}
		c.mergeLocked()
	}
}

// flushLateLocked force-merges the watermark epoch when its stragglers
// have run out the lateness budget. An epoch with no pending frames at all
// (every frame lost in flight) is merged too once a later epoch runs
// overdue — otherwise the merge would wait forever on frames nobody will
// resend while newer epochs pile up behind the window.
func (c *Coordinator) flushLateLocked(now time.Time) {
	for {
		if ep := c.pending[c.watermark]; ep != nil {
			if now.Sub(c.firstAt[c.watermark]) < c.cfg.FlushAfter {
				return
			}
		} else if !c.overdueBeyondLocked(now) {
			return
		}
		c.mergeLocked()
		c.advanceLocked()
	}
}

// overdueBeyondLocked reports whether any epoch past the watermark has been
// pending longer than the lateness budget.
func (c *Coordinator) overdueBeyondLocked(now time.Time) bool {
	for e, at := range c.firstAt {
		if e > c.watermark && now.Sub(at) >= c.cfg.FlushAfter {
			return true
		}
	}
	return false
}

// ForceFlush merges the watermark epoch immediately if any of its frames
// arrived, synthesizing missing shards as non-reporting. It reports
// whether an epoch was merged. Tests and drain paths use it in place of
// the wall-clock lateness budget.
func (c *Coordinator) ForceFlush() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending[c.watermark] == nil {
		return false
	}
	c.mergeLocked()
	c.advanceLocked()
	return true
}

// ForceMerge merges the watermark epoch unconditionally — even when none of
// its frames survived the transport — synthesizing every absent shard as
// non-reporting, then advances through any epochs completed as a result.
// The chaos harness uses it as a step-counted stand-in for the wall-clock
// lateness budget.
func (c *Coordinator) ForceMerge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mergeLocked()
	c.advanceLocked()
}

// mergeLocked merges the watermark epoch from whatever frames are present,
// synthesizing absent expected shards as fully non-reporting machines, and
// advances the watermark. Callers guarantee at least one frame is pending.
func (c *Coordinator) mergeLocked() {
	var t0 time.Time
	if c.mergeSec != nil {
		t0 = time.Now()
	}
	e := c.watermark
	ep := c.pending[e]
	arrivals := c.arrival[e]
	tr := c.cfg.Tracer.StartTraceID("merge_epoch", telemetry.EpochTraceID(int64(e)))
	tr.SetAttr("epoch", int64(e))
	col := tr.StartSpan("collect")
	var parts []monitor.ShardPartial
	var active *crisis.Instance
	full := true
	present, synthesized := 0, 0
	for s := 0; s < c.cfg.Shards; s++ {
		f := ep[s]
		if f == nil {
			if !c.expectedLocked(s) {
				continue
			}
			// Late or dead: its machines count as non-reporting, which is
			// exactly how the single-node monitor sees a machine that
			// delivered nothing — sub-floor coverage freezes the epoch.
			full = false
			c.missed[s]++
			synthesized++
			for _, r := range c.asn.Ranges[s] {
				parts = append(parts, monitor.ShardPartial{
					Lo:        r.Lo,
					Viol:      make([]bool, r.Len()),
					Reporting: make([]bool, r.Len()),
				})
			}
			continue
		}
		c.missed[s] = 0
		present++
		if tr != nil && f.TraceID != 0 {
			// Stitch the shard's pre-ship observe_shard spans under a
			// per-shard anchor; its arrival offset from the epoch's first
			// frame rides as an attr (cross-process span offsets are
			// shard-clock-relative, so skew is reported, not drawn).
			tr.Graft("shard_"+strconv.Itoa(s), f.Spans,
				telemetry.Attr{Key: "shard", Value: int64(s)},
				telemetry.Attr{Key: "arrival_offset_micros", Value: arrivals[s].Microseconds()})
		}
		for bi := range f.Blocks {
			b := &f.Blocks[bi]
			p := monitor.ShardPartial{Lo: b.Lo, Cols: b.Cols, Viol: b.Viol, Reporting: b.Reporting}
			if bi == 0 {
				p.Status = f.Status
				p.Dropped = f.Dropped
			}
			parts = append(parts, p)
		}
		if active == nil && f.Active != nil {
			active = f.Active
		}
	}
	col.SetAttr("shards_present", int64(present))
	col.SetAttr("shards_synthesized", int64(synthesized))
	col.End()
	delete(c.pending, e)
	delete(c.firstAt, e)
	delete(c.arrival, e)
	c.watermark++
	if len(parts) == 0 {
		// Every present frame was empty (a fleet smaller than its shard
		// count can produce ownerless shards); nothing to observe.
		tr.End()
		return
	}
	rep, err := c.cfg.Monitor.ObserveAggregated(c.cfg.Machines, parts, tr)
	// The monitor keeps its own copy of what it retains: the decoded
	// columns go back to the pool for the next frames.
	for _, f := range ep {
		f.Release()
	}
	if err != nil {
		tr.End()
		if c.cfg.Events.Enabled() {
			c.cfg.Events.Event("fleet.merge_error", "epoch", int64(e), "error", err.Error())
		}
		return
	}
	if c.mergeSec != nil {
		c.mergeSec.ObserveSince(t0)
		if full {
			c.merged["full"].Inc()
		} else {
			c.merged["partial"].Inc()
		}
		for s := range c.lag {
			lag := int64(c.watermark-1) - int64(c.lastRx[s])
			if lag < 0 || c.dead[s] {
				lag = 0
			}
			c.lag[s].SetInt(lag)
		}
	}
	c.reapDeadLocked(e)
	// End before OnReport: the trace covers the merge pipeline, not the
	// caller's bookkeeping.
	tr.End()
	if c.cfg.OnReport != nil {
		c.cfg.OnReport(rep, active)
	}
}

// reapDeadLocked declares shards dead once they have been synthesized away
// for DeadAfterEpochs consecutive merges, handing their ranges to the
// survivors.
func (c *Coordinator) reapDeadLocked(e metrics.Epoch) {
	if c.cfg.DeadAfterEpochs <= 0 {
		return
	}
	for s := 0; s < c.cfg.Shards; s++ {
		if c.dead[s] || c.missed[s] < c.cfg.DeadAfterEpochs {
			continue
		}
		next, err := c.asn.Rebalance(s)
		if err != nil {
			// Last live shard: nothing to hand its machines to. Leave it
			// expected so frames resume if it comes back.
			continue
		}
		c.dead[s] = true
		c.asn = next
		if c.rebalances != nil {
			c.rebalances.Inc()
			c.live.SetInt(int64(c.liveCountLocked()))
			c.up[s].SetInt(0)
		}
		if c.cfg.Events.Enabled() {
			c.cfg.Events.Event("fleet.shard_dead",
				"shard", int64(s), "epoch", int64(e),
				"missed_epochs", int64(c.missed[s]), "assignment_version", int64(c.asn.Version))
		}
	}
}

// Run drives the wall-clock lateness flush until ctx is canceled. Without
// it (or with FlushAfter <= 0) late epochs are only flushed when another
// frame arrives or ForceFlush is called.
func (c *Coordinator) Run(ctx context.Context) {
	if c.cfg.FlushAfter <= 0 {
		<-ctx.Done()
		return
	}
	interval := c.cfg.FlushAfter / 2
	if interval <= 0 {
		interval = c.cfg.FlushAfter
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.mu.Lock()
			c.flushLateLocked(time.Now())
			c.mu.Unlock()
		}
	}
}

// Handler returns the coordinator's HTTP surface:
//
//	POST /fleet/frame      — one encoded frame; responds with an encoded Ack
//	GET  /fleet/assignment — current assignment as an encoded Ack
func (c *Coordinator) Handler() http.Handler { return c.handler(maxFrameBytes) }

// handler is Handler with the frame body capped at maxBody bytes: a longer
// body is refused with 413 and an ack naming the cap, which the sender
// surfaces instead of retrying.
func (c *Coordinator) handler(maxBody int64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/frame", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		data, err := readAtMost(r.Body, r.ContentLength, maxBody)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if int64(len(data)) > maxBody {
			c.countFrame("rejected")
			writeAck(w, &Ack{Error: fmt.Sprintf("fleet: frame body exceeds the %d-byte cap", maxBody)},
				http.StatusRequestEntityTooLarge)
			return
		}
		ack, code := c.HandleFrameBytes(data)
		writeAck(w, ack, code)
	})
	mux.HandleFunc("/fleet/assignment", func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		a := c.asn.Clone()
		ack := &Ack{OK: true, Watermark: c.watermark, Assignment: &a}
		c.mu.Unlock()
		writeAck(w, ack, http.StatusOK)
	})
	return mux
}

func writeAck(w http.ResponseWriter, ack *Ack, code int) {
	data, err := ack.Encode()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(code)
	w.Write(data)
}

// CoordinatorState is the coordinator's checkpointable progress: the merge
// watermark, each shard's newest frame epoch, the missed-epoch counters,
// the death markers, and the current assignment. It rides in the daemon's
// checkpoint Extra blob so a restarted coordinator resumes at the right
// epoch and keeps dead shards dead.
type CoordinatorState struct {
	Watermark   metrics.Epoch
	ShardEpochs []metrics.Epoch
	Missed      []int
	Dead        []bool
	Assignment  Assignment
}

func (c *Coordinator) stateLocked() CoordinatorState {
	return CoordinatorState{
		Watermark:   c.watermark,
		ShardEpochs: append([]metrics.Epoch(nil), c.lastRx...),
		Missed:      append([]int(nil), c.missed...),
		Dead:        append([]bool(nil), c.dead...),
		Assignment:  c.asn.Clone(),
	}
}

// Sync calls fn with the coordinator's current state while holding the
// coordinator lock, so no merge can advance the monitor between this
// snapshot and whatever fn captures next — the checkpoint path uses it to
// snapshot coordinator and monitor state as one consistent cut. fn must
// not call back into the coordinator; locks fn takes after this one must
// follow the same order the merge path uses (coordinator lock first).
func (c *Coordinator) Sync(fn func(CoordinatorState)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(c.stateLocked())
}

// Restore installs a snapshot taken by Sync on a freshly built
// coordinator with the same geometry.
func (c *Coordinator) Restore(st CoordinatorState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(st.ShardEpochs) != c.cfg.Shards || len(st.Dead) != c.cfg.Shards || len(st.Missed) != c.cfg.Shards {
		return fmt.Errorf("fleet: restoring state for %d shards into %d", len(st.ShardEpochs), c.cfg.Shards)
	}
	if st.Assignment.Machines != c.cfg.Machines {
		return fmt.Errorf("fleet: restoring assignment for %d machines into fleet of %d",
			st.Assignment.Machines, c.cfg.Machines)
	}
	c.watermark = st.Watermark
	copy(c.lastRx, st.ShardEpochs)
	copy(c.missed, st.Missed)
	copy(c.dead, st.Dead)
	c.asn = st.Assignment.Clone()
	if c.live != nil {
		c.live.SetInt(int64(c.liveCountLocked()))
		for s := range c.dead {
			if c.dead[s] {
				c.up[s].SetInt(0)
			} else {
				c.up[s].SetInt(1)
			}
			c.lastEpoch[s].SetInt(int64(c.lastRx[s]))
		}
	}
	return nil
}
