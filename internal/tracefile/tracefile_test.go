package tracefile

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dcfp/internal/dcsim"
	"dcfp/internal/metrics"
	"dcfp/internal/sla"
)

var (
	tinyOnce sync.Once
	tinyTr   *dcsim.Trace
	tinyErr  error
)

func tinyTrace(t *testing.T) *dcsim.Trace {
	t.Helper()
	tinyOnce.Do(func() {
		// The fewest machines and days that still hold Table 1's 19
		// labelled crises (their schedule needs 3 952 epochs).
		cfg := dcsim.SmallConfig(7)
		cfg.Machines = 10
		cfg.FSMachines = 5
		cfg.BackgroundDays = 1
		cfg.UnlabeledDays = 1
		cfg.LabeledDays = 44
		cfg.UnlabeledCrises = 0
		tinyTr, tinyErr = dcsim.Simulate(cfg)
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyTr
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := tinyTrace(t)
	path := filepath.Join(t.TempDir(), "trace.dcfp")
	if err := Save(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}

	if got.NumEpochs() != tr.NumEpochs() {
		t.Fatalf("epochs %d != %d", got.NumEpochs(), tr.NumEpochs())
	}
	if got.Catalog.Len() != tr.Catalog.Len() || got.Catalog.Name(3) != tr.Catalog.Name(3) {
		t.Fatal("catalog mismatch")
	}
	if got.Config.Machines != tr.Config.Machines || got.Config.Seed != tr.Config.Seed {
		t.Fatalf("config mismatch: %+v", got.Config)
	}
	if got.Config.Workload != tr.Config.Workload {
		t.Fatalf("workload config mismatch: %+v", got.Config.Workload)
	}
	// Track contents identical at sampled points.
	for e := metrics.Epoch(0); int(e) < tr.NumEpochs(); e += 131 {
		a, _ := tr.Track.EpochRow(e)
		b, _ := got.Track.EpochRow(e)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("track differs at epoch %d col %d", e, i)
			}
		}
	}
	// Crisis bookkeeping survives.
	if len(got.Instances) != len(tr.Instances) || len(got.Episodes) != len(tr.Episodes) {
		t.Fatal("crises mismatch")
	}
	if len(got.LabeledCrises()) != len(tr.LabeledCrises()) {
		t.Fatal("labeled crises mismatch")
	}
	// FS data survives: feature-selection samples for the first crisis.
	if len(tr.LabeledCrises()) == 0 {
		t.Fatal("the trace holds no labelled crisis")
	}
	dc := tr.LabeledCrises()[0]
	xa, ya, err := tr.FSSamples(dc.Episode, 4)
	if err != nil {
		t.Fatal(err)
	}
	xb, yb, err := got.FSSamples(dc.Episode, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(xa) != len(xb) || len(ya) != len(yb) {
		t.Fatalf("FS sample counts differ: %d/%d vs %d/%d", len(xa), len(ya), len(xb), len(yb))
	}
	for i := range xa {
		for j := range xa[i] {
			if xa[i][j] != xb[i][j] {
				t.Fatalf("FS sample differs at %d,%d", i, j)
			}
		}
	}
	// SLA status survives.
	if got.Status[100].Machines != tr.Status[100].Machines {
		t.Fatal("status mismatch")
	}
}

func TestSaveValidation(t *testing.T) {
	if err := Save(filepath.Join(t.TempDir(), "x"), nil); err == nil {
		t.Fatal("want nil-trace error")
	}
	if err := Save("/nonexistent-dir/deep/x", smallTrace(t)); err == nil {
		t.Fatal("want create error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("want missing-file error")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("not a trace at all........."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("want magic error")
	}
	// Right magic, wrong version.
	hdr := append([]byte("DCFPTRC1"), 0xFF, 0xFF, 0xFF, 0xFF)
	vbad := filepath.Join(dir, "vbad")
	if err := os.WriteFile(vbad, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(vbad); err == nil {
		t.Fatal("want version error")
	}
	// Right header, corrupt payload.
	cbad := filepath.Join(dir, "cbad")
	good := append([]byte("DCFPTRC1"), 1, 0, 0, 0)
	if err := os.WriteFile(cbad, append(good, []byte("garbage")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(cbad); err == nil {
		t.Fatal("want payload error")
	}
}

func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.dcfp")
	if err := Save(path, smallTrace(t)); err != nil {
		t.Fatal(err)
	}
	onlyFile(t, dir, "trace.dcfp")
}

// TestConcurrentSaves saves one trace to one path from several goroutines:
// each writes a temporary file of its own, so the file left is one whole
// save that Load accepts, and no temporary file remains.
func TestConcurrentSaves(t *testing.T) {
	tr := smallTrace(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.dcfp")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = Save(path, tr)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEpochs() != tr.NumEpochs() || got.Track.NumEpochs() != tr.NumEpochs() || got.Config.Seed != tr.Config.Seed {
		t.Fatalf("loaded %d epochs (track %d) of seed %d, saved %d of seed %d",
			got.NumEpochs(), got.Track.NumEpochs(), got.Config.Seed, tr.NumEpochs(), tr.Config.Seed)
	}
	onlyFile(t, dir, "trace.dcfp")
}

// smallTrace is a trace of zeros, two metrics wide and 4 096 epochs long: a
// file Load accepts that takes milliseconds to save, also under the race
// detector.
func smallTrace(t *testing.T) *dcsim.Trace {
	t.Helper()
	const epochs = 4096
	cat, err := metrics.NewCatalog([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	track, err := metrics.NewQuantileTrack(cat.Len())
	if err != nil {
		t.Fatal(err)
	}
	if err := track.Grow(epochs); err != nil {
		t.Fatal(err)
	}
	return &dcsim.Trace{Config: dcsim.Config{Machines: 10, Seed: 7}, Catalog: cat, Track: track, Status: make([]sla.EpochStatus, epochs)}
}

// onlyFile fails unless name is the one entry of dir.
func onlyFile(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, name)
	}
}
