package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
	"dcfp/internal/telemetry"
)

// TestRing pins the replay ring's policy: one capacity for delivered and
// undelivered frames, delivered evicted first, undelivered only when nothing
// delivered remains (and counted), acks in any order, rewinds clamped to
// what is still retained.
func TestRing(t *testing.T) {
	pending := func(r *Ring) []metrics.Epoch {
		var out []metrics.Epoch
		for _, f := range r.frames {
			if !f.delivered {
				out = append(out, f.epoch)
			}
		}
		return out
	}
	retained := func(r *Ring) []metrics.Epoch {
		var out []metrics.Epoch
		for _, f := range r.frames {
			out = append(out, f.epoch)
		}
		return out
	}
	fill := func(r *Ring, from, to metrics.Epoch) {
		for e := from; e < to; e++ {
			r.Add(e, []byte{byte(e)})
		}
	}
	type want struct {
		retained, pending []metrics.Epoch
		evicted           int
	}
	cases := []struct {
		name string
		cap  int
		run  func(t *testing.T, r *Ring)
		want want
	}{
		{"delivered evicted first, oldest first", 4, func(t *testing.T, r *Ring) {
			fill(r, 0, 4)
			r.Ack(1)
			r.Ack(2)
			fill(r, 4, 6) // evicts 1 then 2, never the undelivered 0
		}, want{[]metrics.Epoch{0, 3, 4, 5}, []metrics.Epoch{0, 3, 4, 5}, 0}},
		{"undelivered evicted only when nothing delivered remains", 3, func(t *testing.T, r *Ring) {
			fill(r, 0, 3)
			r.Ack(2)
			fill(r, 3, 6) // evicts delivered 2, then undelivered 0 and 1
		}, want{[]metrics.Epoch{3, 4, 5}, []metrics.Epoch{3, 4, 5}, 2}},
		{"out-of-order ack, next is the oldest undelivered", 8, func(t *testing.T, r *Ring) {
			fill(r, 0, 5)
			r.Ack(3)
			r.Ack(0)
			r.Ack(3)  // already delivered: ignored
			r.Ack(99) // never added: ignored
			if e, data, ok := r.Next(); !ok || e != 1 || !bytes.Equal(data, []byte{1}) {
				t.Errorf("Next = %d %v %v, want epoch 1", e, data, ok)
			}
		}, want{[]metrics.Epoch{0, 1, 2, 3, 4}, []metrics.Epoch{1, 2, 4}, 0}},
		{"rewind below the retained range re-queues everything", 4, func(t *testing.T, r *Ring) {
			fill(r, 0, 6) // 0 and 1 evicted undelivered
			for e := metrics.Epoch(2); e < 6; e++ {
				r.Ack(e)
			}
			if n := r.Rewind(0); n != 4 {
				t.Errorf("Rewind(0) = %d, want 4", n)
			}
		}, want{[]metrics.Epoch{2, 3, 4, 5}, []metrics.Epoch{2, 3, 4, 5}, 2}},
		{"rewind inside the retained range", 8, func(t *testing.T, r *Ring) {
			fill(r, 0, 6)
			for e := metrics.Epoch(0); e < 5; e++ {
				r.Ack(e)
			}
			if n := r.Rewind(3); n != 2 { // 3 and 4; 5 was still undelivered
				t.Errorf("Rewind(3) = %d, want 2", n)
			}
		}, want{[]metrics.Epoch{0, 1, 2, 3, 4, 5}, []metrics.Epoch{3, 4, 5}, 0}},
		{"rewind above the retained range is a no-op", 8, func(t *testing.T, r *Ring) {
			fill(r, 0, 3)
			r.Ack(0)
			r.Ack(1)
			r.Ack(2)
			if n := r.Rewind(3); n != 0 {
				t.Errorf("Rewind(3) = %d, want 0", n)
			}
			if _, _, ok := r.Next(); ok {
				t.Error("Next reports an undelivered frame in a fully delivered ring")
			}
		}, want{[]metrics.Epoch{0, 1, 2}, nil, 0}},
		{"rewind past capacity replays only what survived", 3, func(t *testing.T, r *Ring) {
			for e := metrics.Epoch(0); e < 10; e++ {
				r.Add(e, nil)
				r.Ack(e)
			}
			if n := r.Rewind(2); n != 3 { // 2..6 are gone
				t.Errorf("Rewind(2) = %d, want 3", n)
			}
		}, want{[]metrics.Epoch{7, 8, 9}, []metrics.Epoch{7, 8, 9}, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			r := NewRing(tc.cap, reg)
			tc.run(t, r)
			if got := retained(r); !reflect.DeepEqual(got, tc.want.retained) {
				t.Errorf("retained %v, want %v", got, tc.want.retained)
			}
			if got := pending(r); !reflect.DeepEqual(got, tc.want.pending) {
				t.Errorf("pending %v, want %v", got, tc.want.pending)
			}
			if r.Pending() != len(tc.want.pending) || r.Evicted() != tc.want.evicted {
				t.Errorf("Pending/Evicted = %d/%d, want %d/%d",
					r.Pending(), r.Evicted(), len(tc.want.pending), tc.want.evicted)
			}
			if v, _ := reg.Value("dcfp_fleet_replay_pending"); int(v) != r.Pending() {
				t.Errorf("dcfp_fleet_replay_pending = %v, ring has %d", v, r.Pending())
			}
			if v, _ := reg.Value("dcfp_fleet_replay_evicted_total"); int(v) != r.Evicted() {
				t.Errorf("dcfp_fleet_replay_evicted_total = %v, ring lost %d", v, r.Evicted())
			}
		})
	}
}

// swapHandler lets a test replace the coordinator behind a live httptest
// server; the write lock waits out requests still inside the old one.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.h.ServeHTTP(w, r)
}

// TestDrainCoordinatorRestart is the in-process twin of cmd/dcfpd's
// three-process kill-and-restore exec test: two aggregators, each draining
// its own ring over real HTTP from its own goroutine, while the coordinator
// is replaced mid-stream by one restored from a checkpoint at least 20
// epochs old. The aggregators must notice the regressed watermark, rewind,
// and fast-forward the new coordinator to reports identical to the
// single-node reference.
func TestDrainCoordinatorRestart(t *testing.T) {
	// The chaos suite's scripted trace on a 30-machine fleet, which keeps
	// the -race run in seconds. The restart lands inside the first crisis.
	const seed, epochs, machines, ckptAt, minAge = 42, chaosEpochs, 30, 40, 24
	newStream := func() *dcsim.Stream {
		scfg := dcsim.DefaultStreamConfig(seed)
		scfg.Machines = machines
		scfg.WarmupEpochs = 24
		scfg.Script = []dcsim.ScriptedCrisis{
			{Start: 60, Duration: 10, Type: crisis.TypeB},
			{Start: 84, Duration: 10, Type: crisis.TypeG},
			{Start: 108, Duration: 8, Type: crisis.TypeB},
		}
		s, err := dcsim.NewStream(scfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := newStream()
	m1 := chaosMonitor(t, ref, 0, nil)
	op1 := chaosOperator(m1)
	var want []*monitor.EpochReport
	for i := 0; i < epochs; i++ {
		rows, act, err := ref.Next()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m1.ObserveEpoch(rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := observe(op1, rep, act); err != nil {
			t.Fatal(err)
		}
		want = append(want, rep)
	}
	if st := m1.Stats(); st.CrisesLabeled < 3 {
		t.Fatalf("reference run labelled %d crises, want the 3 scripted ones; the comparison would be vacuous", st.CrisesLabeled)
	}

	// Everything below mu is written by the coordinator's report callback
	// (on HTTP server goroutines) and read by the test goroutine.
	var mu sync.Mutex
	got := map[metrics.Epoch]*monitor.EpochReport{}
	mF := chaosMonitor(t, ref, 0, nil)
	opF := chaosOperator(mF)
	newCoord := func(mon *monitor.Monitor) *Coordinator {
		coord, err := NewCoordinator(CoordinatorConfig{
			Machines: machines, Shards: 2, Monitor: mon, FlushAfter: -1,
			OnReport: func(rep *monitor.EpochReport, act *crisis.Instance) {
				mu.Lock()
				defer mu.Unlock()
				got[rep.Epoch] = rep
				if err := observe(opF, rep, act); err != nil {
					t.Error(err)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return coord
	}
	coord := newCoord(mF)
	sw := &swapHandler{h: coord.Handler()}
	srv := httptest.NewServer(sw)
	defer srv.Close()

	// Deferred in this order so a failing test cancels the aggregators and
	// then waits for them: they log through t.
	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	shipped := make([]int, 2)
	rings := make([]*Ring, 2)
	for s := range rings {
		stream := newStream()
		g, err := NewAggregator(AggregatorConfig{
			Shard: s, Shards: 2, Machines: machines,
			NumMetrics: stream.Catalog().Len(), SLA: stream.SLA(),
			CoordinatorURL: srv.URL,
			// A shard ahead of the merge window gives up quickly and queues.
			RetryBackoff: time.Millisecond, MaxElapsed: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		rings[s] = NewRing(2*epochs, nil)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			drain := func() bool {
				n, err := g.Drain(ctx, rings[s], t.Logf)
				shipped[s] += n
				if err != nil {
					t.Errorf("shard %d: %v", s, err)
				}
				return err == nil && ctx.Err() == nil
			}
			for e := metrics.Epoch(0); e < epochs; e++ {
				rows, act, err := stream.Next()
				if err != nil {
					t.Error(err)
					return
				}
				frame, err := g.EpochFrame(e, rows, act)
				if err != nil {
					t.Error(err)
					return
				}
				rings[s].Add(e, frame)
				if !drain() {
					return
				}
			}
			for rings[s].Pending() > 0 && drain() {
			}
		}(s)
	}

	waitWatermark := func(c *Coordinator, wm metrics.Epoch) {
		for c.Watermark() < wm {
			if ctx.Err() != nil {
				t.Fatalf("watermark stuck at %d waiting for %d", c.Watermark(), wm)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// One consistent cut: coordinator progress, monitor, operator.
	waitWatermark(coord, ckptAt)
	var ckptMon bytes.Buffer
	var ckptCoord CoordinatorState
	var ckptOp monitor.OperatorState
	coord.Sync(func(st CoordinatorState) {
		ckptCoord = st
		if err := mF.WriteCheckpoint(&ckptMon, monitor.CheckpointMeta{}); err != nil {
			t.Error(err)
		}
		ckptOp = opF.State()
	})
	waitWatermark(coord, ckptCoord.Watermark+minAge)

	// Crash-failover: the live coordinator and monitor are discarded.
	sw.mu.Lock()
	mR := chaosMonitor(t, ref, 0, nil)
	if _, err := mR.ReadCheckpoint(&ckptMon); err != nil {
		t.Fatal(err)
	}
	restored := newCoord(mR)
	if err := restored.Restore(ckptCoord); err != nil {
		t.Fatal(err)
	}
	lost := coord.Watermark() - restored.Watermark()
	opF = chaosOperator(mR)
	opF.SetState(ckptOp)
	sw.h = restored.Handler()
	sw.mu.Unlock()

	wg.Wait()
	if lost < minAge {
		t.Fatalf("restart lost only %d epochs of merge progress, want >= %d", lost, minAge)
	}
	for s, r := range rings {
		if r.Pending() != 0 || r.Evicted() != 0 {
			t.Errorf("shard %d: %d frames pending, %d evicted at exit", s, r.Pending(), r.Evicted())
		}
		// Every acked frame counts, so only a rewind pushes this past the
		// stream length.
		if shipped[s] < epochs+int(lost) {
			t.Errorf("shard %d acked %d frames over %d epochs: the drain never rewound the %d lost epochs",
				s, shipped[s], epochs, lost)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, w := range want {
		if g := got[metrics.Epoch(i)]; !reflect.DeepEqual(g, w) {
			t.Fatalf("epoch %d: reports diverge after coordinator restart:\nsingle: %+v\nfleet:  %+v", i, w, g)
		}
	}
	if !reflect.DeepEqual(m1.Stats(), mR.Stats()) {
		t.Fatalf("final stats diverge:\nsingle: %+v\nfleet:  %+v", m1.Stats(), mR.Stats())
	}
}

// truthLabel is the diagnosis the simulated operator files for act.
func truthLabel(act *crisis.Instance) string {
	if act == nil {
		return ""
	}
	return "type-" + act.Type.String()
}

// TestDrainRejection: a deliberate refusal ends the drain with an error and
// leaves the frame queued; nothing is rewound on the way.
func TestDrainRejection(t *testing.T) {
	s := fleetStream(t, 3)
	coord, err := NewCoordinator(CoordinatorConfig{
		Machines: 100, Shards: 2, Monitor: fleetMonitor(t, s, 0, nil), FlushAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	// A 3-shard sender against a 2-shard coordinator: shard 2 is refused.
	g, err := NewAggregator(AggregatorConfig{
		Shard: 2, Shards: 3, Machines: 100,
		NumMetrics: s.Catalog().Len(), SLA: s.SLA(), CoordinatorURL: srv.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := g.EpochFrame(0, mustNext(t, s), nil)
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing(4, nil)
	ring.Add(0, frame)
	n, err := g.Drain(context.Background(), ring, t.Logf)
	if err == nil || !strings.Contains(err.Error(), "shard 2 out of 2") {
		t.Fatalf("Drain error = %v, want the coordinator's rejection", err)
	}
	if n != 0 || ring.Pending() != 1 {
		t.Fatalf("acked %d, %d pending; want 0 acked, frame still queued", n, ring.Pending())
	}
}
