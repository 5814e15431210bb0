package dcsim

import (
	"sync"
	"testing"

	"dcfp/internal/crisis"
	"dcfp/internal/metrics"
	"dcfp/internal/sla"
)

// testTrace simulates one shared small trace; generating it is the
// expensive part, so every test reuses it.
var (
	traceOnce sync.Once
	shared    *Trace
	sharedErr error
)

func testTrace(t *testing.T) *Trace {
	t.Helper()
	traceOnce.Do(func() {
		shared, sharedErr = Simulate(SmallConfig(42))
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return shared
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Machines = 5 },
		func(c *Config) { c.BackgroundDays = 0 },
		func(c *Config) { c.UnlabeledDays = 0 },
		func(c *Config) { c.LabeledDays = 0 },
		func(c *Config) { c.UnlabeledCrises = -1 },
		func(c *Config) { c.FSMachines = 2 },
		func(c *Config) { c.FSMachines = 1000 },
		func(c *Config) { c.FSPad = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig(1)
		mut(&cfg)
		if _, err := Simulate(cfg); err == nil {
			t.Errorf("mutation %d should be rejected", i)
		}
	}
}

func TestCatalogShape(t *testing.T) {
	cat := StandardCatalog()
	if cat.Len() != 56+NumFillerMetrics {
		t.Fatalf("catalog has %d metrics", cat.Len())
	}
	for _, kpi := range []string{KPIFrontEnd, KPIProcessing, KPIPost} {
		if _, ok := cat.Index(kpi); !ok {
			t.Fatalf("KPI %s missing", kpi)
		}
	}
}

func TestStandardSLA(t *testing.T) {
	cat := StandardCatalog()
	cfg, err := StandardSLA(cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.KPIs) != 3 || cfg.CrisisFraction != 0.10 {
		t.Fatalf("sla config = %+v", cfg)
	}
	if err := cfg.Validate(cat.Len()); err != nil {
		t.Fatal(err)
	}
}

func TestProfilesCompile(t *testing.T) {
	cat := StandardCatalog()
	ps, err := compileProfiles(cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != crisis.NumTypes {
		t.Fatalf("compiled %d profiles, want %d", len(ps), crisis.NumTypes)
	}
	// Every profile must touch at least one KPI metric so the crisis is
	// detectable through the SLA rule.
	kpis := map[int]bool{}
	for _, name := range []string{KPIFrontEnd, KPIProcessing, KPIPost} {
		i, _ := cat.Index(name)
		kpis[i] = true
	}
	for ty, p := range ps {
		touches := false
		for _, e := range p.effects {
			if kpis[e.metric] && e.factor > 1 {
				touches = true
			}
		}
		if !touches {
			t.Errorf("profile %s never drives a KPI hot", ty)
		}
	}
}

func TestProfilesDistinctPatterns(t *testing.T) {
	// No two crisis types may perturb the identical metric set in the
	// identical directions — otherwise they are indistinguishable by
	// construction.
	sig := func(p Profile) map[string]bool {
		m := map[string]bool{}
		for _, e := range p.Effects {
			m[e.Metric] = e.Factor > 1
		}
		return m
	}
	ps := Profiles()
	for a := crisis.TypeA; a <= crisis.TypeJ; a++ {
		for b := a + 1; b <= crisis.TypeJ; b++ {
			sa, sb := sig(ps[a]), sig(ps[b])
			same := len(sa) == len(sb)
			if same {
				for k, v := range sa {
					if bv, ok := sb[k]; !ok || bv != v {
						same = false
						break
					}
				}
			}
			if same {
				t.Errorf("types %s and %s have identical effect patterns", a, b)
			}
		}
	}
}

func TestSimulateTraceShape(t *testing.T) {
	tr := testTrace(t)
	cfg := tr.Config
	wantEpochs := (cfg.BackgroundDays + cfg.UnlabeledDays + cfg.LabeledDays) * metrics.EpochsPerDay
	if tr.NumEpochs() != wantEpochs {
		t.Fatalf("NumEpochs = %d, want %d", tr.NumEpochs(), wantEpochs)
	}
	if tr.Track.NumEpochs() != wantEpochs {
		t.Fatalf("track epochs = %d", tr.Track.NumEpochs())
	}
	if tr.Track.NumMetrics() != tr.Catalog.Len() {
		t.Fatal("track/catalog width mismatch")
	}
	if len(tr.InCrisis) != wantEpochs || len(tr.Status) != wantEpochs {
		t.Fatal("status lengths wrong")
	}
	if tr.UnlabeledStart != metrics.Epoch(cfg.BackgroundDays*metrics.EpochsPerDay) {
		t.Fatal("UnlabeledStart wrong")
	}
}

func TestSimulateAllLabeledCrisesDetected(t *testing.T) {
	tr := testTrace(t)
	labeled := tr.LabeledCrises()
	if len(labeled) != 19 {
		t.Fatalf("detected %d labeled crises, want 19", len(labeled))
	}
	// Type multiset must match Table 1.
	got := map[crisis.Type]int{}
	for _, dc := range labeled {
		got[dc.Instance.Type]++
	}
	for ty, n := range crisis.Table1Counts() {
		if got[ty] != n {
			t.Errorf("type %s: detected %d, want %d", ty, got[ty], n)
		}
	}
}

func TestSimulateUnlabeledCrisesDetected(t *testing.T) {
	tr := testTrace(t)
	un := tr.UnlabeledCrises()
	if len(un) != tr.Config.UnlabeledCrises {
		t.Fatalf("detected %d unlabeled crises, want %d", len(un), tr.Config.UnlabeledCrises)
	}
	for _, dc := range un {
		if dc.Instance.Labeled {
			t.Fatal("unlabeled crisis marked labeled")
		}
	}
}

func TestNoFalseCrisesInBackground(t *testing.T) {
	tr := testTrace(t)
	for e := metrics.Epoch(0); e < tr.UnlabeledStart; e++ {
		if tr.InCrisis[e] {
			t.Fatalf("false crisis at background epoch %d", e)
		}
	}
}

func TestDetectionLagSmall(t *testing.T) {
	tr := testTrace(t)
	for _, dc := range tr.DetectedCrises() {
		lag := int(dc.Episode.Start - dc.Instance.Start)
		if lag < 0 || lag > 4 {
			t.Errorf("crisis %s: detection lag %d epochs", dc.Instance.ID, lag)
		}
	}
}

func TestCrisisMetricsElevated(t *testing.T) {
	tr := testTrace(t)
	cat := tr.Catalog
	backlogIdx, _ := cat.Index("post_archive_backlog")
	for _, dc := range tr.LabeledCrises() {
		if dc.Instance.Type != crisis.TypeB {
			continue
		}
		// Median backlog during the crisis must exceed the level just
		// before it (type B multiplies it by ~12 on 35-75% of machines,
		// so the 95th quantile certainly moves; the median moves when
		// more than half the machines are affected — check q95).
		before, err := tr.Track.At(dc.Instance.Start-10, backlogIdx, 2)
		if err != nil {
			t.Fatal(err)
		}
		during, err := tr.Track.At(dc.Instance.End(), backlogIdx, 2)
		if err != nil {
			t.Fatal(err)
		}
		if during < before*2 {
			t.Errorf("crisis %s: backlog q95 %v -> %v, want >2x", dc.Instance.ID, before, during)
		}
	}
}

func TestFSSamplesBothClasses(t *testing.T) {
	tr := testTrace(t)
	for _, dc := range tr.LabeledCrises() {
		x, y, err := tr.FSSamples(dc.Episode, 4)
		if err != nil {
			t.Fatalf("crisis %s: %v", dc.Instance.ID, err)
		}
		if len(x) != len(y) || len(x) == 0 {
			t.Fatalf("crisis %s: %d samples", dc.Instance.ID, len(x))
		}
		pos, neg := 0, 0
		for _, yi := range y {
			if yi == 1 {
				pos++
			} else {
				neg++
			}
		}
		if pos == 0 || neg == 0 {
			t.Errorf("crisis %s: classes pos=%d neg=%d", dc.Instance.ID, pos, neg)
		}
		if len(x[0]) != tr.Catalog.Len() {
			t.Fatalf("FS row width %d", len(x[0]))
		}
	}
}

func TestFSSamplesMissingEpochs(t *testing.T) {
	tr := testTrace(t)
	// An episode in the quiet background has no retained raw data.
	if _, _, err := tr.FSSamples(slaEpisode(5, 6), 0); err == nil {
		t.Fatal("want error for episode with no FS data")
	}
}

func TestInstanceEpisodeMatching(t *testing.T) {
	tr := testTrace(t)
	for _, dc := range tr.DetectedCrises() {
		in, ok := tr.InstanceForEpisode(dc.Episode)
		if !ok || in.ID != dc.Instance.ID {
			t.Fatalf("InstanceForEpisode = %+v, %v", in, ok)
		}
	}
	if _, ok := tr.InstanceForEpisode(slaEpisode(0, 1)); ok {
		t.Fatal("background episode should match nothing")
	}
}

func TestIsNormal(t *testing.T) {
	tr := testTrace(t)
	if !tr.IsNormal(-5) || !tr.IsNormal(metrics.Epoch(tr.NumEpochs()+5)) {
		t.Fatal("out-of-range epochs default to normal")
	}
	dc := tr.DetectedCrises()[0]
	if tr.IsNormal(dc.Episode.Start) {
		t.Fatal("crisis epoch reported normal")
	}
	if !tr.IsNormal(0) {
		t.Fatal("background epoch reported abnormal")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := SmallConfig(42)
	cfg.BackgroundDays = 5
	cfg.UnlabeledDays = 12
	cfg.LabeledDays = 45
	cfg.UnlabeledCrises = 2
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEpochs() != b.NumEpochs() {
		t.Fatal("epoch count differs")
	}
	for e := metrics.Epoch(0); int(e) < a.NumEpochs(); e += 97 {
		ra, _ := a.Track.EpochRow(e)
		rb, _ := b.Track.EpochRow(e)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("track differs at epoch %d, col %d", e, i)
			}
		}
	}
}

// slaEpisode builds an episode literal.
func slaEpisode(start, end metrics.Epoch) sla.Episode {
	return sla.Episode{Start: start, End: end}
}

// Detection counts must stay fraction-driven: during a crisis's full-effect
// epochs, the fraction of machines violating a KPI tracks the injected
// affected fraction — spillover adds at most a small excess, and most
// affected machines do violate.
func TestViolationCountsTrackAffectedFraction(t *testing.T) {
	tr := testTrace(t)
	for _, dc := range tr.DetectedCrises() {
		in := dc.Instance
		mid := in.Start + metrics.Epoch(in.Duration/2)
		if mid > dc.Episode.End {
			mid = dc.Episode.End
		}
		st := tr.Status[mid]
		got := float64(st.ViolatingAny) / float64(st.Machines)
		if got > in.AffectedFraction+0.15+1e-9 {
			t.Errorf("crisis %s (%s): violating fraction %.2f far above affected %.2f — spillover leaking",
				in.ID, in.Type, got, in.AffectedFraction)
		}
		if got < in.AffectedFraction*0.7 {
			t.Errorf("crisis %s (%s): violating fraction %.2f far below affected %.2f",
				in.ID, in.Type, got, in.AffectedFraction)
		}
	}
}
