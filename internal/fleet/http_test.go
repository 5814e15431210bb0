package fleet

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
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
			ack, err := g.Ship(ctx, frame)
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
	ack, err := aggs[0].Ship(ctx, frame)
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
