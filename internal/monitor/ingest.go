package monitor

import (
	"fmt"
	"math"
	"sort"

	"dcfp/internal/metrics"
	"dcfp/internal/telemetry"
)

// Ingestor sequences a possibly disordered epoch stream into a Monitor.
//
// The Monitor itself assumes epochs arrive exactly once, in order — the
// quantile track, the ring buffer and the crisis state machine all index by
// arrival position. Real telemetry pipelines deliver worse: collectors
// retry and duplicate epochs, shards flush out of order, and whole epochs
// vanish. The Ingestor absorbs that at the boundary: duplicates are
// dropped, early epochs are buffered inside a bounded reorder window until
// the missing predecessors arrive, and when the window is exceeded the
// missing epochs are declared lost and the stream resumes (a lost epoch is
// simply never observed; the Monitor's internal epoch counter keeps its own
// gapless sequence).
type Ingestor struct {
	cfg IngestConfig
	mon *Monitor

	next metrics.Epoch               // next source epoch the monitor expects
	buf  map[metrics.Epoch]*heldRows // early epochs awaiting predecessors
	free []*heldRows                 // drained early epochs' storage, for the next one

	duplicates *telemetry.Counter
	reordered  *telemetry.Counter
	lost       *telemetry.Counter
}

// IngestConfig tunes the reorder window.
type IngestConfig struct {
	// ReorderWindow is how many epochs past the next expected one the
	// ingestor will buffer while waiting for stragglers. When an epoch
	// arrives more than ReorderWindow ahead, the oldest missing epochs are
	// declared lost so the stream can advance. 0 disables buffering: any
	// out-of-order epoch immediately forfeits the epochs before it.
	ReorderWindow int
	// Telemetry, when non-nil, registers the ingestor's sequencing counters
	// (dcfp_ingest_epochs_{duplicate,reordered,lost}_total).
	Telemetry *telemetry.Registry
}

// DefaultIngestConfig buffers a modest four epochs of disorder.
func DefaultIngestConfig() IngestConfig {
	return IngestConfig{ReorderWindow: 4}
}

// NewIngestor wraps the monitor with epoch sequencing.
func NewIngestor(m *Monitor, cfg IngestConfig) (*Ingestor, error) {
	if m == nil {
		return nil, fmt.Errorf("monitor: nil monitor")
	}
	if cfg.ReorderWindow < 0 {
		return nil, fmt.Errorf("monitor: ReorderWindow %d negative", cfg.ReorderWindow)
	}
	r := cfg.Telemetry
	return &Ingestor{
		cfg: cfg,
		mon: m,
		buf: make(map[metrics.Epoch]*heldRows),
		duplicates: r.Counter("dcfp_ingest_epochs_duplicate_total",
			"Epochs dropped because their sequence number was already observed or buffered."),
		reordered: r.Counter("dcfp_ingest_epochs_reordered_total",
			"Epochs that arrived ahead of sequence and were buffered in the reorder window."),
		lost: r.Counter("dcfp_ingest_epochs_lost_total",
			"Epochs given up on after the reorder window passed without their arrival."),
	}, nil
}

// Ingest feeds one source epoch. It returns the epoch reports produced —
// empty when the epoch was dropped (duplicate) or buffered (early), one
// report for the common in-order case, and several when this epoch
// unblocked buffered successors. Buffered rows are deep-copied, into the
// storage of an early epoch already drained when there is one, so callers
// may reuse their row slices between calls (dcsim.Stream does).
func (in *Ingestor) Ingest(e metrics.Epoch, samples [][]float64) ([]*EpochReport, error) {
	if e < 0 {
		return nil, fmt.Errorf("monitor: negative source epoch %d", e)
	}
	if e < in.next {
		in.duplicates.Inc()
		return nil, nil
	}
	if _, ok := in.buf[e]; ok {
		in.duplicates.Inc()
		return nil, nil
	}

	var reports []*EpochReport
	if e > in.next {
		h := new(heldRows)
		if n := len(in.free); n > 0 {
			h, in.free = in.free[n-1], in.free[:n-1]
		}
		h.fill(samples)
		in.buf[e] = h
		in.reordered.Inc()
	} else {
		rep, err := in.mon.ObserveEpoch(samples)
		if err != nil {
			return nil, err
		}
		in.next++
		reports = append(reports, rep)
	}

	// Drain: observe consecutive buffered epochs, and once the buffered
	// span exceeds the window give up on the missing predecessors.
	for len(in.buf) > 0 {
		if h, ok := in.buf[in.next]; ok {
			delete(in.buf, in.next)
			rep, err := in.mon.ObserveEpoch(h.rows)
			in.free = append(in.free, h)
			if err != nil {
				return reports, err
			}
			in.next++
			reports = append(reports, rep)
			continue
		}
		// Every buffered epoch is ahead of next.
		var lo, hi metrics.Epoch = math.MaxInt, in.next
		for e := range in.buf {
			lo, hi = min(lo, e), max(hi, e)
		}
		if int(hi-in.next) <= in.cfg.ReorderWindow {
			break // still inside the window: keep waiting
		}
		// Window exhausted: the next missing epoch is lost; skip to the
		// oldest epoch we actually hold.
		in.lost.Add(uint64(lo - in.next))
		in.next = lo
	}
	return reports, nil
}

// Pending reports how many early epochs are buffered and the next source
// epoch the ingestor is waiting for.
func (in *Ingestor) Pending() (buffered int, next metrics.Epoch) {
	return len(in.buf), in.next
}

// BufferedEpoch is one early epoch held in the reorder window, exported for
// checkpointing.
type BufferedEpoch struct {
	Epoch metrics.Epoch
	Rows  [][]float64
}

// IngestorState is the sequencing state a checkpoint must carry so a
// restored monitor resumes at the right source epoch.
type IngestorState struct {
	Next     metrics.Epoch
	Buffered []BufferedEpoch
}

// State snapshots the sequencing state (buffered rows are deep-copied,
// sorted by epoch for determinism).
func (in *Ingestor) State() IngestorState {
	st := IngestorState{Next: in.next}
	for e, h := range in.buf {
		st.Buffered = append(st.Buffered, BufferedEpoch{Epoch: e, Rows: new(heldRows).fill(h.rows)})
	}
	sort.Slice(st.Buffered, func(i, j int) bool { return st.Buffered[i].Epoch < st.Buffered[j].Epoch })
	return st
}

// SetState restores sequencing state captured by State.
func (in *Ingestor) SetState(st IngestorState) error {
	if st.Next < 0 {
		return fmt.Errorf("monitor: ingestor state next epoch %d negative", st.Next)
	}
	buf := make(map[metrics.Epoch]*heldRows, len(st.Buffered))
	for _, b := range st.Buffered {
		if b.Epoch <= st.Next {
			return fmt.Errorf("monitor: buffered epoch %d not ahead of next %d", b.Epoch, st.Next)
		}
		if _, dup := buf[b.Epoch]; dup {
			return fmt.Errorf("monitor: buffered epoch %d duplicated in state", b.Epoch)
		}
		buf[b.Epoch] = new(heldRows)
		buf[b.Epoch].fill(b.Rows)
	}
	in.next = st.Next
	in.buf = buf
	return nil
}

// heldRows is an early epoch's rows copied into storage of its own: one
// slab, and a row view into it per delivered row (nil for a missing or empty
// one).
type heldRows struct {
	rows [][]float64
	data []float64
}

// fill copies rows into h, reusing h's storage, and returns the copy.
func (h *heldRows) fill(rows [][]float64) [][]float64 {
	h.data, h.rows = h.data[:0], h.rows[:0]
	for _, r := range rows {
		h.data = append(h.data, r...)
	}
	off := 0
	for _, r := range rows {
		var v []float64
		if len(r) > 0 {
			v = h.data[off : off+len(r) : off+len(r)]
		}
		h.rows = append(h.rows, v)
		off += len(r)
	}
	return h.rows
}
