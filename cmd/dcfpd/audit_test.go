package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/monitor"
	"dcfp/internal/telemetry"
)

// TestAuditJournalSmoke is the audit-journal satellite, in process: a daemon
// driven over a faulty stream with -audit-out must produce a journal where
// every line parses as JSON, every identification decision carries its
// explanation, and the /accuracy scoreboard agrees line-for-line with the
// journal's scored resolutions.
func TestAuditJournalSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("360-epoch run")
	}
	const seed, maxEpochs, resolveAfter = 42, 360, 24

	reg := telemetry.NewRegistry()
	scfg := dcsim.DefaultStreamConfig(seed)
	scfg.Machines = 30
	scfg.WarmupEpochs = 96
	scfg.MeanGapEpochs = 24
	scfg.Types = []crisis.Type{crisis.TypeB, crisis.TypeC}
	stream, err := dcsim.NewStream(scfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := dcsim.NewFaultInjector(stream, dcsim.DefaultFaultConfig(seed+1))
	if err != nil {
		t.Fatal(err)
	}

	tracer := telemetry.NewTracer(64)
	mcfg := monitor.DefaultConfig(stream.Catalog(), stream.SLA())
	mcfg.MinEpochsForThresholds = 96
	mcfg.Telemetry = reg
	mcfg.ExpectedMachines = scfg.Machines
	mcfg.Tracer = tracer
	auditPath := filepath.Join(t.TempDir(), "audit.jsonl")
	c := defaultConfig()
	c.resolveAfter, c.auditOut = resolveAfter, auditPath
	d, err := newDaemon(c, mcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := telemetry.Serve("127.0.0.1:0", telemetry.NewHandler(reg, d.endpoints()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for inj.Stats().Epochs < maxEpochs {
		ep, err := inj.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.step(ep); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.auditW.Close(); err != nil {
		t.Fatal(err)
	}

	// Every journal line must parse; decisions must carry explanations.
	f, err := os.Open(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type line struct {
		Type    string          `json:"type"`
		Advice  *monitor.Advice `json:"advice"`
		Epoch   int             `json:"epoch"`
		Crisis  string          `json:"crisis_id"`
		Truth   string          `json:"truth"`
		Known   bool            `json:"known"`
		Emitted string          `json:"emitted"`
	}
	nAdvice, nResolve := 0, 0
	knownTotal, unknownTotal := uint64(0), uint64(0)
	confusion := map[[2]string]uint64{}
	resolvedID := ""
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("journal line %d is not JSON: %v\n%s", n, err, sc.Bytes())
		}
		switch l.Type {
		case "advice":
			nAdvice++
			if l.Advice == nil || l.Advice.Explanation == nil {
				t.Fatalf("journal line %d: identification decision without explanation:\n%s", n, sc.Bytes())
			}
			if l.Advice.Explanation.CrisisID != l.Advice.CrisisID {
				t.Fatalf("journal line %d: explanation is for crisis %q, advice for %q",
					n, l.Advice.Explanation.CrisisID, l.Advice.CrisisID)
			}
		case "resolve":
			nResolve++
			confusion[[2]string{l.Emitted, l.Truth}]++
			if l.Known {
				knownTotal++
			} else {
				unknownTotal++
			}
			resolvedID = l.Crisis
		case "alert", "incident":
			// newDaemon wires the alert engine and incident builder as
			// production does; their lines are checked by their own suites.
		default:
			t.Fatalf("journal line %d has unknown type %q", n, l.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if nAdvice == 0 || nResolve == 0 {
		t.Fatalf("journal recorded %d decisions and %d resolutions; the smoke is vacuous", nAdvice, nResolve)
	}

	// /accuracy must agree with the journal's own confusion counts.
	var st monitor.ScoreboardState
	getJSON(t, "http://"+addr+"/accuracy", &st)
	if st.Resolved != uint64(nResolve) {
		t.Fatalf("/accuracy resolved %d, journal has %d resolutions", st.Resolved, nResolve)
	}
	if st.KnownTotal != knownTotal || st.UnknownTotal != unknownTotal {
		t.Fatalf("/accuracy known/unknown %d/%d, journal says %d/%d",
			st.KnownTotal, st.UnknownTotal, knownTotal, unknownTotal)
	}
	if len(st.Confusion) != len(confusion) {
		t.Fatalf("/accuracy has %d confusion cells, journal has %d", len(st.Confusion), len(confusion))
	}
	for _, c := range st.Confusion {
		if confusion[[2]string{c.Emitted, c.Truth}] != c.Count {
			t.Fatalf("confusion cell (%q, %q): /accuracy %d, journal %d",
				c.Emitted, c.Truth, c.Count, confusion[[2]string{c.Emitted, c.Truth}])
		}
	}

	// The decision trail behind a scored resolution stays queryable.
	var expl struct {
		CrisisID     string            `json:"crisis_id"`
		Explanations []json.RawMessage `json:"explanations"`
	}
	getJSON(t, "http://"+addr+"/explain/"+resolvedID, &expl)
	if expl.CrisisID != resolvedID || len(expl.Explanations) == 0 {
		t.Fatalf("/explain/%s = %+v", resolvedID, expl)
	}
	var traces []telemetry.TraceSnapshot
	getJSON(t, "http://"+addr+"/traces", &traces)
	if len(traces) == 0 {
		t.Fatal("/traces is empty after a 360-epoch run")
	}
}

// getJSON fetches url and decodes the body, requiring 200 + application/json.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content-type %q", url, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: body not JSON: %v", url, err)
	}
}
