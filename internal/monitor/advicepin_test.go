package monitor

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"dcfp/internal/core"
	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/metrics"
)

// TestAdviceStreamDigest pins the monitor's output: the SHA-256 of the JSON
// of every EpochReport (status, advice with its explanation, forecast) over
// a seeded scripted run of 100 machines, one worker, forecast on. Crises
// alternate A/B and are labelled by ResolveCrisis as they close; every fifth
// epoch is dirty, as in TestCheckpointDigest. One crisis violates the SLA for
// a single epoch, so it closes before its summary window's last epoch
// exists: its stored fingerprint averages only the epochs observed by then,
// and later crises are compared against it. The digest changes only when a
// report does.
func TestAdviceStreamDigest(t *testing.T) {
	const (
		epochs = 420
		want   = "ae1c87b513a98a66e8edf640712c87ae83fbc629ae0f9023c350e54c8a6b952a"
	)
	s, cfg := earlyCloseRun(t)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := metrics.Epoch(core.DefaultSummaryRange().After)
	h := sha256.New()
	label, lastActive := "", false
	var start metrics.Epoch
	early, advised := 0, 0
	for e := 0; e < epochs; e++ {
		src, act, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]float64, len(src))
		for i, row := range src {
			rows[i] = append([]float64(nil), row...)
		}
		if e%5 == 0 {
			rows[7] = nil
			for j := range rows[13] {
				rows[13][j] = math.NaN()
			}
			rows[21][3], rows[21][8] = math.NaN(), math.Inf(1)
		}
		rep, err := m.ObserveEpoch(rows)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		h.Write(b)
		if rep.Advice != nil && rep.Advice.Candidates > 0 {
			advised++
		}
		if act != nil {
			label = fmt.Sprintf("type-%d", act.Type)
		}
		if rep.CrisisActive {
			start = rep.CrisisStart
		}
		if lastActive && !rep.CrisisActive {
			if rep.Epoch < start+after {
				early++
			}
			recs := m.Crises()
			if err := m.ResolveCrisis(recs[len(recs)-1].ID, label); err != nil {
				t.Fatal(err)
			}
		}
		lastActive = rep.CrisisActive
	}
	stored, labeled := m.KnownCrises()
	if early == 0 {
		t.Fatal("no crisis closed before its summary window's last epoch; the script no longer reaches one")
	}
	if advised == 0 {
		t.Fatal("no advice compared a labelled past crisis")
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("%d epochs, %d crises (%d labelled), %d closed early, %d advice with candidates: report stream SHA-256 %s, want %s",
			epochs, stored, labeled, early, advised, got, want)
	}
}

// earlyCloseRun is TestAdviceStreamDigest's seeded stream and monitor
// configuration: eight scripted crises 48 epochs apart from epoch 52,
// alternating A/B, the fifth violating the SLA for one epoch only.
func earlyCloseRun(t *testing.T) (*dcsim.Stream, Config) {
	t.Helper()
	const seed, short = 7, 4
	scfg := dcsim.DefaultStreamConfig(seed)
	scfg.WarmupEpochs = 40
	for i := 0; i < 8; i++ {
		typ, dur := crisis.TypeA, 8
		if i%2 == 1 {
			typ = crisis.TypeB
		}
		if i == short {
			dur = 2
		}
		scfg.Script = append(scfg.Script, dcsim.ScriptedCrisis{
			Start: metrics.Epoch(52 + 48*i), Duration: dur, Type: typ,
		})
	}
	s, err := dcsim.NewStream(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(s.Catalog(), s.SLA())
	cfg.ThresholdRefreshEpochs = 48
	cfg.MinEpochsForThresholds = 48
	cfg.Workers = 1
	cfg.Forecast = DefaultForecastConfig()
	return s, cfg
}
