package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
	"dcfp/internal/telemetry"
)

// TestFleetHTTP drives two aggregators through the real HTTP surface —
// httptest server, POST /fleet/frame, gob acks — and checks the merged
// epoch stream matches the single-node reference over a short trace.
func TestFleetHTTP(t *testing.T) {
	const seed, epochs = 11, 60
	s1, sN := fleetStream(t, seed), fleetStream(t, seed)
	m1 := fleetMonitor(t, s1, 0, nil)
	reg := telemetry.NewRegistry()
	mF := fleetMonitor(t, sN, 0, nil)
	machines := dcsim.DefaultStreamConfig(0).Machines

	var reps []*monitor.EpochReport
	coord, err := NewCoordinator(CoordinatorConfig{
		Machines: machines, Shards: 2, Monitor: mF, FlushAfter: -1,
		Telemetry: reg,
		OnReport: func(rep *monitor.EpochReport, _ *crisis.Instance) {
			reps = append(reps, rep)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	aggs := make([]*Aggregator, 2)
	for s := range aggs {
		aggs[s], err = NewAggregator(AggregatorConfig{
			Shard: s, Shards: 2, Machines: machines,
			NumMetrics: sN.Catalog().Len(), SLA: sN.SLA(),
			CoordinatorURL: srv.URL, Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	for i := 0; i < epochs; i++ {
		rows1, _, err := s1.Next()
		if err != nil {
			t.Fatal(err)
		}
		rowsN, act, err := sN.Next()
		if err != nil {
			t.Fatal(err)
		}
		r1, err := m1.ObserveEpoch(rows1)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range aggs {
			frame, err := g.EpochFrame(metrics.Epoch(i), rowsN, act)
			if err != nil {
				t.Fatal(err)
			}
			ack, err := g.ShipEpoch(ctx, -1, frame)
			if err != nil {
				t.Fatal(err)
			}
			if !ack.OK {
				t.Fatalf("epoch %d: %s", i, ack.Error)
			}
		}
		if len(reps) != i+1 {
			t.Fatalf("epoch %d: %d reports", i, len(reps))
		}
		if !reflect.DeepEqual(reps[i], r1) {
			t.Fatalf("epoch %d diverged:\nsingle: %+v\nfleet:  %+v", i, r1, reps[i])
		}
	}

	// A replayed old frame acks stale rather than corrupting the stream.
	frame, err := aggs[0].EpochFrame(metrics.Epoch(0), mustNext(t, sN), nil)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := aggs[0].ShipEpoch(ctx, -1, frame)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Stale {
		t.Fatalf("replayed frame not stale: %+v", ack)
	}
	if len(reps) != epochs {
		t.Fatalf("stale frame changed the report stream: %d", len(reps))
	}

	if v, ok := reg.Value("dcfp_fleet_bytes_shipped_total"); !ok || v <= 0 {
		t.Fatalf("dcfp_fleet_bytes_shipped_total = %v, %v", v, ok)
	}
	if v, ok := reg.Value("dcfp_fleet_bytes_received_total"); !ok || v <= 0 {
		t.Fatalf("dcfp_fleet_bytes_received_total = %v, %v", v, ok)
	}
	full, ok := reg.Value("dcfp_fleet_epochs_merged_total", telemetry.Label{Key: "completeness", Value: "full"})
	if !ok || full != epochs {
		t.Fatalf("full merges = %v, %v", full, ok)
	}
}

func mustNext(t *testing.T, s *dcsim.Stream) [][]float64 {
	t.Helper()
	rows, _, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestShipVersionRefusal: a frame from a build with another frameVersion is
// refused deliberately, and the sender must learn that from the first
// response — the refusal's text in a non-OK ack — instead of retrying intact
// bytes as if the transport had failed.
func TestShipVersionRefusal(t *testing.T) {
	s := fleetStream(t, 3)
	machines := dcsim.DefaultStreamConfig(0).Machines
	reg := telemetry.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{
		Machines: machines, Shards: 2, Monitor: fleetMonitor(t, s, 0, nil), FlushAfter: -1,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var posts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		coord.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	g, err := NewAggregator(AggregatorConfig{
		Shard: 0, Shards: 2, Machines: machines,
		NumMetrics: s.Catalog().Len(), SLA: s.SLA(),
		CoordinatorURL: srv.URL, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := g.EpochFrame(0, mustNext(t, s), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The checksum covers the payload only, so the frame stays sealed.
	binary.BigEndian.PutUint32(frame[len(frameMagic):], frameVersion+1)

	ack, err := g.ShipEpoch(context.Background(), 0, frame)
	if err != nil {
		t.Fatalf("version refusal surfaced as a transport error after %d posts: %v", posts.Load(), err)
	}
	want := fmt.Sprintf("frame version %d, want %d", frameVersion+1, frameVersion)
	if ack.OK || !strings.Contains(ack.Error, want) {
		t.Fatalf("ack = %+v, want a refusal carrying %q", ack, want)
	}
	if n := posts.Load(); n != 1 {
		t.Fatalf("refusal took %d posts, want 1", n)
	}
	if v, _ := reg.Value("dcfp_fleet_frames_total", telemetry.Label{Key: "result", Value: "rejected"}); v != 1 {
		t.Fatalf("dcfp_fleet_frames_total{result=rejected} = %v, want 1", v)
	}
}

// TestShipOversizeRefusal: a body over the coordinator's cap is refused with
// 413 and an ack naming the cap, counted as rejected rather than corrupt, and
// the sender learns it from the first response instead of re-posting the same
// bytes. A body of exactly the cap is accepted.
func TestShipOversizeRefusal(t *testing.T) {
	s := fleetStream(t, 3)
	machines := dcsim.DefaultStreamConfig(0).Machines
	reg := telemetry.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{
		Machines: machines, Shards: 2, Monitor: fleetMonitor(t, s, 0, nil), FlushAfter: -1,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var posts atomic.Int32
	var limit int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		coord.handler(limit).ServeHTTP(w, r)
	}))
	defer srv.Close()
	g, err := NewAggregator(AggregatorConfig{
		Shard: 0, Shards: 2, Machines: machines,
		NumMetrics: s.Catalog().Len(), SLA: s.SLA(),
		CoordinatorURL: srv.URL, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := g.EpochFrame(0, mustNext(t, s), nil)
	if err != nil {
		t.Fatal(err)
	}
	limit = int64(len(frame) - 1)

	ack, err := g.ShipEpoch(context.Background(), 0, frame)
	if err != nil {
		t.Fatalf("oversize refusal surfaced as a transport error after %d posts: %v", posts.Load(), err)
	}
	want := fmt.Sprintf("exceeds the %d-byte cap", limit)
	if ack.OK || !strings.Contains(ack.Error, want) {
		t.Fatalf("ack = %+v, want a refusal carrying %q", ack, want)
	}
	if n := posts.Load(); n != 1 {
		t.Fatalf("refusal took %d posts, want 1", n)
	}
	for res, want := range map[string]float64{"rejected": 1, "corrupt": 0} {
		if v, _ := reg.Value("dcfp_fleet_frames_total", telemetry.Label{Key: "result", Value: res}); v != want {
			t.Errorf("dcfp_fleet_frames_total{result=%s} = %v, want %v", res, v, want)
		}
	}

	rec := httptest.NewRecorder()
	coord.handler(int64(len(frame))).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fleet/frame", bytes.NewReader(frame)))
	if rec.Code != http.StatusOK {
		t.Fatalf("frame of exactly the cap: status %d, body %q", rec.Code, rec.Body)
	}
}

// TestFrameBodyRead: the coordinator reads a frame body into one buffer sized
// from its declared length. A body of exactly that length costs one
// allocation, an overstated length at most 1 MiB, the buffer never outgrows
// max(1 MiB, 2 × bytes received) + 512 B, and bodies of unknown length,
// chunked or not, still decode.
func TestFrameBodyRead(t *testing.T) {
	frame, err := benchFixtureFrame(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	s := fleetStream(t, 1)
	// The fixture is shard 0's frame of epoch 7 in a 100-machine fleet: inside
	// the window, so it is accepted and waits for shard 1.
	coord, err := NewCoordinator(CoordinatorConfig{
		Machines: 100, Shards: 2, Monitor: fleetMonitor(t, s, 0, nil), FlushAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := coord.Handler()
	post := func(body io.Reader, declared int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/fleet/frame", body)
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	t.Run("exact-length", func(t *testing.T) {
		rd := bytes.NewReader(frame)
		allocs := testing.AllocsPerRun(20, func() {
			rd.Reset(frame)
			if got, err := readAtMost(rd, int64(len(frame)), maxFrameBytes); err != nil || len(got) != len(frame) {
				t.Fatalf("read %d bytes, err %v; want %d", len(got), err, len(frame))
			}
		})
		if allocs != 1 {
			t.Fatalf("reading a body of its declared length took %v allocations, want 1", allocs)
		}
		if rec := post(bytes.NewReader(frame), int64(len(frame))); rec.Code != http.StatusOK {
			t.Fatalf("status %d, body %q", rec.Code, rec.Body)
		}
	})
	t.Run("capacity-bound", func(t *testing.T) {
		for _, sent := range []int{0, 10, len(frame), 3 << 20} {
			body := make([]byte, sent)
			for _, declared := range []int64{-1, 0, 10, int64(sent), 1 << 20, maxFrameBytes} {
				got, err := readAtMost(bytes.NewReader(body), declared, maxFrameBytes)
				bound := max(1<<20, 2*sent) + bytes.MinRead
				if err != nil || len(got) != sent || cap(got) > bound {
					t.Errorf("sent %d, declared %d: read %d into cap %d (bound %d), err %v",
						sent, declared, len(got), cap(got), bound, err)
				}
			}
		}
	})
	t.Run("overstated-length", func(t *testing.T) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := post(bytes.NewReader(make([]byte, 10)), 64<<20)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("10 bytes declared as 64 MiB: status %d, want 400", rec.Code)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 11<<20/10 {
			t.Fatalf("10 bytes declared as 64 MiB allocated %d bytes, want at most 1.1 MiB", d)
		}
	})
	t.Run("unknown-length", func(t *testing.T) {
		// httptest.NewRequest declares -1 for a reader of unknown length.
		if rec := post(struct{ io.Reader }{bytes.NewReader(frame)}, -1); rec.Code != http.StatusOK {
			t.Fatalf("status %d, body %q", rec.Code, rec.Body)
		}
		// Over a real connection the client sends such a body chunked.
		srv := httptest.NewServer(h)
		defer srv.Close()
		resp, err := http.Post(srv.URL+"/fleet/frame", "application/octet-stream", struct{ io.Reader }{bytes.NewReader(frame)})
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		ack, err := DecodeAck(raw)
		if err != nil || resp.StatusCode != http.StatusOK || !ack.OK {
			t.Fatalf("chunked post: status %d, ack %+v, err %v", resp.StatusCode, ack, err)
		}
	})
}
