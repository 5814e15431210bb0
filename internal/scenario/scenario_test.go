package scenario

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dcfp/internal/crisis"
)

func validScenario() *Scenario {
	sc := &Scenario{
		Name:   "unit",
		Fleet:  Fleet{Epochs: 140},
		Crises: []Crisis{{Start: 60, Duration: 10, Type: "B"}},
	}
	sc.applyDefaults()
	return sc
}

func TestValidateAcceptsMinimalScenario(t *testing.T) {
	if err := validScenario().Validate(); err != nil {
		t.Fatalf("minimal scenario rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"missing name", func(sc *Scenario) { sc.Name = "" }, "missing name"},
		{"zero epochs", func(sc *Scenario) { sc.Fleet.Epochs = 0 }, "epochs"},
		{"no crises", func(sc *Scenario) { sc.Crises = nil }, "at least one scripted crisis"},
		{"bad crisis type", func(sc *Scenario) { sc.Crises[0].Type = "Z" }, "crisis 0"},
		{"crisis past end", func(sc *Scenario) { sc.Crises[0].Start = 135 }, "past the last epoch"},
		{"crisis in warmup", func(sc *Scenario) { sc.Crises[0].Start = 10 }, "warmup"},
		{"partition without steps", func(sc *Scenario) {
			sc.Events = []Event{{At: 50, Action: ActionPartition, Shard: 0}}
		}, "steps >= 1"},
		{"partition bad shard", func(sc *Scenario) {
			sc.Events = []Event{{At: 50, Action: ActionPartition, Shard: 7, Steps: 3}}
		}, "out of range"},
		{"kill bad shard", func(sc *Scenario) {
			sc.Events = []Event{{At: 50, Action: ActionKillShard, Shard: -1}}
		}, "out of range"},
		{"event outside run", func(sc *Scenario) {
			sc.Events = []Event{{At: 200, Action: ActionKillShard, Shard: 0}}
		}, "outside the run"},
		{"unknown action", func(sc *Scenario) {
			sc.Events = []Event{{At: 50, Action: "reboot_rack", Shard: 0}}
		}, "unknown action"},
		{"restart before checkpoint", func(sc *Scenario) {
			sc.Events = []Event{{At: 10, Action: ActionRestartCoordinator}}
		}, "precedes the first checkpoint"},
		{"detect bad crisis index", func(sc *Scenario) {
			sc.Expect.Detect = []Detect{{Crisis: 3, By: 70}}
		}, "references crisis"},
		{"detect deadline before start", func(sc *Scenario) {
			sc.Expect.Detect = []Detect{{Crisis: 0, By: 60}}
		}, "not after crisis start"},
		{"detect deadline outside run", func(sc *Scenario) {
			sc.Expect.Detect = []Detect{{Crisis: 0, By: 150}}
		}, "outside the run"},
		{"accuracy out of band", func(sc *Scenario) {
			acc := 1.5
			sc.Expect.MinKnownAccuracy = &acc
		}, "outside [0,1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := validScenario()
			tc.mut(sc)
			err := sc.Validate()
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "typo.json")
	body := `{"name":"typo","fleet":{"epochs":140},"crises":[{"start":60,"duration":10,"type":"B"}],"expect":{"max_degarded_epochs":0}}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("scenario with a misspelled expectation key loaded without error")
	}
}

func TestTypeLabel(t *testing.T) {
	ty, err := crisis.ParseType("B")
	if err != nil {
		t.Fatal(err)
	}
	if got := typeLabel(ty); got != "type-B" {
		t.Fatalf("typeLabel = %q, want type-B", got)
	}
}

// TestScenarioLibrary loads and runs every committed scenario — the same
// matrix CI's scenarios job executes. A failure prints the measured result
// and each expectation violation.
func TestScenarioLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario library runs take ~1s each")
	}
	scs, err := LoadDir(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) < 10 {
		t.Fatalf("scenario library has %d scenarios, want at least 10", len(scs))
	}
	// The subtests run in parallel, after this function returns; the
	// identity check waits for all of them.
	var mu sync.Mutex
	got := make(map[string]string, len(scs))
	t.Cleanup(func() {
		if !t.Failed() {
			checkIdentity(t, got)
		}
	})
	for _, sc := range scs {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(sc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			t.Logf("%s", res.Summary())
			t.Logf("detections=%v outcomes=%+v rebalances=%d zombie=%d corrupt=%d evicted=%d",
				res.Detections, res.Outcomes, res.Rebalances, res.ZombieRejected, res.CorruptFrames, res.Evicted)
			for _, f := range res.Failures {
				t.Errorf("expectation violated: %s", f)
			}
			// The document `dcfpd -scenario` prints.
			doc, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			got[sc.Name] = fmt.Sprintf("%x", sha256.Sum256(doc))
			mu.Unlock()
		})
	}
}

// update rewrites the identity file from this run instead of checking it.
var update = flag.Bool("update", false, "rewrite testdata/identity.json from this run")

// identityPath holds the repository's identity pins: the SHA-256 of every
// committed scenario's result document. A change that keeps every output
// bit-identical leaves the file as it is; one that moves numbers on purpose
// re-pins it with -update, and its diff shows which results moved.
var identityPath = filepath.Join("..", "..", "testdata", "identity.json")

type identity struct {
	Scenarios map[string]string `json:"scenarios"`
}

// checkIdentity compares the scenario digests with the identity file, or
// rewrites the file under -update.
func checkIdentity(t *testing.T, scenarios map[string]string) {
	t.Helper()
	if *update {
		b, err := json.MarshalIndent(identity{Scenarios: scenarios}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(identityPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(identityPath)
	if err != nil {
		t.Fatal(err)
	}
	var want identity
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", identityPath, err)
	}
	for name, sum := range scenarios {
		if want.Scenarios[name] != sum {
			t.Errorf("scenario %s: result document SHA-256 %s, %s pins %q", name, sum, identityPath, want.Scenarios[name])
		}
	}
	for name := range want.Scenarios {
		if _, ok := scenarios[name]; !ok {
			t.Errorf("%s pins scenario %s, which the library no longer has", identityPath, name)
		}
	}
}
