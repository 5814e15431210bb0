package fleet

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dcfp/internal/sla"
	"dcfp/internal/telemetry"
)

func testSLA(t *testing.T, numMetrics int) sla.Config {
	t.Helper()
	cfg := sla.Config{
		KPIs:           []sla.KPI{{Name: "kpi0", Metric: 0, Threshold: 100}},
		CrisisFraction: 0.1,
	}
	if err := cfg.Validate(numMetrics); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestBreakerStateMachine drives the breaker through closed → open →
// half-open → closed and the half-open → open failure edge with a fake
// clock.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(3, time.Minute, telemetry.NewRegistry())
	b.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("failure %d: breaker closed early", i)
		}
		b.failure()
	}
	if b.state != breakerClosed {
		t.Fatalf("state %d after 2 failures, want closed", b.state)
	}
	b.failure() // third consecutive failure opens
	if b.state != breakerOpen {
		t.Fatalf("state %d after threshold failures, want open", b.state)
	}
	if b.allow() {
		t.Fatal("open breaker allowed traffic before cooldown")
	}
	now = now.Add(time.Minute)
	if !b.allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.state != breakerHalfOpen {
		t.Fatalf("state %d after cooldown, want half-open", b.state)
	}
	b.failure() // failed probe re-opens immediately
	if b.state != breakerOpen || b.allow() {
		t.Fatalf("failed probe left state %d (allow=%v), want re-opened", b.state, b.allow())
	}
	now = now.Add(time.Minute)
	if !b.allow() {
		t.Fatal("second probe refused")
	}
	b.success()
	if b.state != breakerClosed || b.fails != 0 {
		t.Fatalf("successful probe left state %d fails %d", b.state, b.fails)
	}
}

// TestBreakerNilDisabled: a nil breaker allows everything and never panics.
func TestBreakerNilDisabled(t *testing.T) {
	var b *breaker
	b.failure()
	b.success()
	if !b.allow() {
		t.Fatal("nil breaker blocked traffic")
	}
}

func shipTestAggregator(t *testing.T, url string, reg *telemetry.Registry, mut func(*AggregatorConfig)) *Aggregator {
	t.Helper()
	cfg := AggregatorConfig{
		Shard:          0,
		Shards:         1,
		Machines:       10,
		NumMetrics:     3,
		SLA:            testSLA(t, 3),
		CoordinatorURL: url,
		Client:         &http.Client{Timeout: time.Second},
		RetryBackoff:   time.Millisecond,
		Telemetry:      reg,
	}
	if mut != nil {
		mut(&cfg)
	}
	g, err := NewAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestShipAbandonsAfterMaxAttempts: a dead coordinator makes Ship give up
// after MaxAttempts and count the frame abandoned.
func TestShipAbandonsAfterMaxAttempts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler) // kill the connection mid-response
	}))
	defer srv.Close()
	reg := telemetry.NewRegistry()
	g := shipTestAggregator(t, srv.URL, reg, func(c *AggregatorConfig) {
		c.MaxAttempts = 3
		c.BreakerThreshold = -1 // isolate the attempt budget
	})
	if _, err := g.ShipEpoch(context.Background(), -1, []byte("frame")); err == nil {
		t.Fatal("Ship succeeded against a dead coordinator")
	}
	if v, ok := reg.Value("dcfp_fleet_ship_abandoned_total"); !ok || v != 1 {
		t.Fatalf("abandoned counter = %v (ok=%v), want 1", v, ok)
	}
}

// TestShipAbandonsAtDeadline: with a generous attempt budget the elapsed
// deadline still bounds the call.
func TestShipAbandonsAtDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer srv.Close()
	reg := telemetry.NewRegistry()
	g := shipTestAggregator(t, srv.URL, reg, func(c *AggregatorConfig) {
		c.MaxAttempts = 1 << 20
		c.MaxElapsed = 50 * time.Millisecond
		c.BreakerThreshold = -1
	})
	start := time.Now()
	if _, err := g.ShipEpoch(context.Background(), -1, []byte("frame")); err == nil {
		t.Fatal("Ship succeeded against a dead coordinator")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("Ship held the frame for %v despite a 50ms deadline", el)
	}
	if v, ok := reg.Value("dcfp_fleet_ship_abandoned_total"); !ok || v != 1 {
		t.Fatalf("abandoned counter = %v (ok=%v), want 1", v, ok)
	}
}

// TestShipBreakerFastFail: once consecutive failures open the breaker,
// subsequent Ship calls return ErrBreakerOpen without touching the wire,
// and a healed coordinator closes it again after the cooldown probe.
func TestShipBreakerFastFail(t *testing.T) {
	var healthy atomic.Bool
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if !healthy.Load() {
			panic(http.ErrAbortHandler)
		}
		writeAck(w, &Ack{OK: true}, http.StatusOK)
	}))
	defer srv.Close()
	reg := telemetry.NewRegistry()
	g := shipTestAggregator(t, srv.URL, reg, func(c *AggregatorConfig) {
		c.MaxAttempts = 2
		c.BreakerThreshold = 4
		c.BreakerCooldown = 20 * time.Millisecond
	})
	// Two Ship calls × 2 attempts = 4 consecutive failures = threshold.
	for i := 0; i < 2; i++ {
		if _, err := g.ShipEpoch(context.Background(), -1, []byte("frame")); err == nil {
			t.Fatalf("call %d: Ship succeeded against a dead coordinator", i)
		}
	}
	wire := hits.Load()
	if _, err := g.ShipEpoch(context.Background(), -1, []byte("frame")); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Ship with open breaker returned %v, want ErrBreakerOpen", err)
	}
	if hits.Load() != wire {
		t.Fatal("open breaker still hit the wire")
	}
	if v, ok := reg.Value("dcfp_fleet_breaker_opens_total"); !ok || v != 1 {
		t.Fatalf("breaker opens = %v (ok=%v), want 1", v, ok)
	}
	healthy.Store(true)
	time.Sleep(25 * time.Millisecond) // let the cooldown elapse
	ack, err := g.ShipEpoch(context.Background(), -1, []byte("frame"))
	if err != nil || !ack.OK {
		t.Fatalf("probe after heal: ack=%+v err=%v", ack, err)
	}
	if v, _ := reg.Value("dcfp_fleet_breaker_state"); v != float64(breakerClosed) {
		t.Fatalf("breaker state gauge = %v after heal, want closed", v)
	}
}
