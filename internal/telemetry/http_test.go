package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dcfp_crises_detected_total", "Crises detected.").Add(2)
	reg.Histogram("dcfp_observe_epoch_seconds", "ObserveEpoch latency.", TimeBuckets()).Observe(0.001)

	health := func() any { return map[string]any{"status": "ok", "epochs": 42} }
	crises := func() any { return []map[string]string{{"id": "crisis-001", "label": "db-overload"}} }
	srv := httptest.NewServer(NewHandler(reg, Endpoints{Health: health, Crises: crises}))
	defer srv.Close()

	t.Run("metrics", func(t *testing.T) {
		body, ct := get(t, srv.URL+"/metrics")
		if !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content-type = %q", ct)
		}
		for _, want := range []string{
			"dcfp_crises_detected_total 2",
			`dcfp_observe_epoch_seconds_bucket{le="+Inf"} 1`,
			"dcfp_observe_epoch_seconds_count 1",
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("metrics missing %q:\n%s", want, body)
			}
		}
	})

	t.Run("healthz", func(t *testing.T) {
		body, ct := get(t, srv.URL+"/healthz")
		if ct != "application/json" {
			t.Fatalf("content-type = %q", ct)
		}
		var payload map[string]any
		if err := json.Unmarshal([]byte(body), &payload); err != nil {
			t.Fatalf("healthz not JSON: %v\n%s", err, body)
		}
		if payload["status"] != "ok" || payload["epochs"] != float64(42) {
			t.Fatalf("healthz payload = %v", payload)
		}
	})

	t.Run("crises", func(t *testing.T) {
		body, _ := get(t, srv.URL+"/crises")
		var payload []map[string]string
		if err := json.Unmarshal([]byte(body), &payload); err != nil {
			t.Fatalf("crises not JSON: %v\n%s", err, body)
		}
		if len(payload) != 1 || payload[0]["id"] != "crisis-001" {
			t.Fatalf("crises payload = %v", payload)
		}
	})

	t.Run("pprof", func(t *testing.T) {
		body, _ := get(t, srv.URL+"/debug/pprof/")
		if !strings.Contains(body, "profile") {
			t.Fatalf("pprof index unexpected:\n%.200s", body)
		}
	})
}

func TestHandlerDefaults(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewRegistry(), Endpoints{}))
	defer srv.Close()
	body, _ := get(t, srv.URL+"/healthz")
	if !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("default healthz = %s", body)
	}
	resp, err := http.Get(srv.URL + "/crises")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/crises without provider: status %d, want 404", resp.StatusCode)
	}
}

// TestNewHandlerObservability covers the decision-tracing endpoints:
// /traces and /accuracy share the /crises JSON guarantee (application/json,
// [] never null), and /explain/{id} resolves known IDs and 404s unknown
// ones with a JSON body.
func TestNewHandlerObservability(t *testing.T) {
	tracer := NewTracer(4)
	tracer.StartTrace("observe_epoch").End()
	srv := httptest.NewServer(NewHandler(NewRegistry(), Endpoints{
		Traces:   func() any { return tracer.Snapshots() },
		Accuracy: func() any { return map[string]any{"known_accuracy": 0.8} },
		Explain: func(id string) (any, bool) {
			if id != "crisis-001" {
				return nil, false
			}
			return map[string]string{"crisis_id": id}, true
		},
	}))
	defer srv.Close()

	t.Run("traces", func(t *testing.T) {
		body, ct := get(t, srv.URL+"/traces")
		if ct != "application/json" {
			t.Fatalf("content-type = %q", ct)
		}
		var snaps []TraceSnapshot
		if err := json.Unmarshal([]byte(body), &snaps); err != nil {
			t.Fatalf("traces not JSON: %v\n%s", err, body)
		}
		if len(snaps) != 1 || snaps[0].Name != "observe_epoch" {
			t.Fatalf("traces payload = %+v", snaps)
		}
	})

	t.Run("accuracy", func(t *testing.T) {
		body, ct := get(t, srv.URL+"/accuracy")
		if ct != "application/json" {
			t.Fatalf("content-type = %q", ct)
		}
		var payload map[string]any
		if err := json.Unmarshal([]byte(body), &payload); err != nil {
			t.Fatalf("accuracy not JSON: %v\n%s", err, body)
		}
		if payload["known_accuracy"] != 0.8 {
			t.Fatalf("accuracy payload = %v", payload)
		}
	})

	t.Run("explain", func(t *testing.T) {
		body, ct := get(t, srv.URL+"/explain/crisis-001")
		if ct != "application/json" {
			t.Fatalf("content-type = %q", ct)
		}
		if !strings.Contains(body, "crisis-001") {
			t.Fatalf("explain payload = %s", body)
		}
	})

	t.Run("explain-unknown", func(t *testing.T) {
		for _, path := range []string{"/explain/nope", "/explain/", "/explain/a/b"} {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("GET %s: content-type %q, want JSON error body", path, ct)
			}
			var payload map[string]string
			if err := json.Unmarshal(b, &payload); err != nil || payload["error"] == "" {
				t.Fatalf("GET %s: error body not JSON: %v\n%s", path, err, b)
			}
		}
	})

	t.Run("empty-traces-render-array", func(t *testing.T) {
		// A disabled tracer still yields [], never null — the guarantee the
		// dashboard parsers rely on.
		var disabled *Tracer
		srv2 := httptest.NewServer(NewHandler(NewRegistry(), Endpoints{
			Traces: func() any { return disabled.Snapshots() },
		}))
		defer srv2.Close()
		body, _ := get(t, srv2.URL+"/traces")
		if strings.TrimSpace(body) != "[]" {
			t.Fatalf("empty traces rendered %q, want []", body)
		}
	})
}

// TestNewHandlerDefaults404: unwired observability routes 404 rather than
// serving empty bodies.
func TestNewHandlerDefaults404(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewRegistry(), Endpoints{}))
	defer srv.Close()
	for _, path := range []string{"/traces", "/accuracy", "/explain/x"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s without provider: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestServe(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewHandler(NewRegistry(), Endpoints{}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body, _ := get(t, "http://"+addr+"/healthz")
	if !strings.Contains(body, "ok") {
		t.Fatalf("healthz over Serve = %s", body)
	}
	if _, _, err := Serve("256.0.0.1:bad", nil); err == nil {
		t.Fatal("want listen error for bad address")
	}
}

func get(t *testing.T, url string) (body, contentType string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, b)
	}
	return string(b), resp.Header.Get("Content-Type")
}
