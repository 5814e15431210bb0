package monitor

import (
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcfp/internal/alert"
	"dcfp/internal/telemetry"
)

// TestConcurrentScrapes hammers /metrics, /api/history and /alerts while
// ObserveEpoch runs, exactly as a Prometheus scraper races the daemon's
// epoch loop. Run with -race; the registry, history store and alert engine
// are each internally synchronized, so no coordination with the observer
// goroutine is needed or taken.
func TestConcurrentScrapes(t *testing.T) {
	reg := telemetry.NewRegistry()
	tb := newForecastTestbed(t)
	cfg := tb.m.cfg
	cfg.Telemetry = reg
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb.m = m

	hist := telemetry.NewHistory(reg, telemetry.HistoryConfig{RawCapacity: 64})
	engine, err := alert.New(alert.Config{Rules: alert.DefaultRules(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	handler := telemetry.NewHandler(reg, telemetry.Endpoints{
		History: hist,
		Alerts:  func() any { return engine.Snapshot() },
	})

	// One epoch before the scrapers start: /api/history answers 404 for a
	// metric until its first sample exists.
	observe := func() {
		rep := tb.step()
		engine.Eval(rep.Epoch)
		hist.Sample(int64(rep.Epoch))
	}
	observe()

	done := make(chan struct{})
	var scrapes atomic.Int64
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/api/history?metric=dcfp_forecast_risk", "/alerts"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != 200 {
					t.Errorf("%s -> %d", path, rec.Code)
					return
				}
				scrapes.Add(1)
			}
		}(path)
	}

	// Keep the epoch loop running until at least one scrape completed while
	// epochs were still flowing, so the test genuinely overlaps the two.
	// Without -race the 150 baseline steps alone can finish before any
	// scraper goroutine gets scheduled.
	steps := 1
	for deadline := time.Now().Add(10 * time.Second); steps < 150 || scrapes.Load() == 0; steps++ {
		if time.Now().After(deadline) {
			break
		}
		observe()
	}
	close(done)
	wg.Wait()
	if scrapes.Load() == 0 {
		t.Fatal("scrapers never completed a request while epochs were flowing")
	}
	if hist.Samples() != int64(steps) {
		t.Fatalf("history recorded %d samples, want %d", hist.Samples(), steps)
	}
}
