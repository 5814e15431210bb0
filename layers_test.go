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
