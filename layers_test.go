package dcfp_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestPaperPackagesImportNoShell holds the layering: the packages that
// implement the paper's method (§3 summaries, thresholds, fingerprints,
// feature selection and identification) import nothing of the online shell
// around them — the monitor, the fleet or telemetry — directly or through
// another package.
func TestPaperPackagesImportNoShell(t *testing.T) {
	method := []string{"stats", "quantile", "metrics", "sla", "core", "logreg", "ident"}
	shell := []string{"monitor", "fleet", "telemetry"}
	for _, p := range method {
		out, err := exec.Command("go", "list", "-deps", "dcfp/internal/"+p).CombinedOutput()
		if err != nil {
			t.Fatalf("go list -deps %s: %v\n%s", p, err, out)
		}
		deps := strings.Fields(string(out))
		if len(deps) == 0 || deps[len(deps)-1] != "dcfp/internal/"+p {
			t.Fatalf("go list -deps %s listed %v, not ending in the package itself", p, deps)
		}
		for _, d := range deps {
			for _, s := range shell {
				if d == "dcfp/internal/"+s {
					t.Errorf("dcfp/internal/%s imports %s", p, d)
				}
			}
		}
	}
}

// TestOnlineStepIsPure holds the step/shell split: dcfp/internal/online, the
// paper's pipeline as one step over the epoch stream, imports nothing of its
// shell (the monitor, the fleet, telemetry) directly or through another
// package, and reads no clock and no scheduler state of its own. metrics and
// ident pull time in transitively for their own types, so the clock check
// is on the package's direct imports.
func TestOnlineStepIsPure(t *testing.T) {
	const pkg = "dcfp/internal/online"
	out, err := exec.Command("go", "list", "-deps", pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps %s: %v\n%s", pkg, err, out)
	}
	deps := strings.Fields(string(out))
	if len(deps) == 0 || deps[len(deps)-1] != pkg {
		t.Fatalf("go list -deps %s listed %v, not ending in the package itself", pkg, deps)
	}
	for _, d := range deps {
		for _, s := range []string{"monitor", "fleet", "telemetry"} {
			if d == "dcfp/internal/"+s {
				t.Errorf("%s imports %s", pkg, d)
			}
		}
	}
	out, err = exec.Command("go", "list", "-f", "{{join .Imports \" \"}}", pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("go list -f {{.Imports}} %s: %v\n%s", pkg, err, out)
	}
	imports := strings.Fields(string(out))
	if len(imports) == 0 {
		t.Fatalf("go list listed no imports of %s", pkg)
	}
	for _, d := range imports {
		if d == "time" || d == "runtime" {
			t.Errorf("%s imports %s", pkg, d)
		}
	}
}
