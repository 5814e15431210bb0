package workload

import (
	"math"
	"slices"
	"testing"

	"dcfp/internal/metrics"
)

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Base: 0},
		{Base: 1, AR: 1},
		{Base: 1, AR: -0.1},
		{Base: 1, NoiseStd: -1},
		{Base: 1, DiurnalAmplitude: 1.5},
		{Base: 1, WeeklyAmplitude: -0.2},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, 1); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
	if _, err := New(DefaultConfig(), 1); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := New(DefaultConfig(), 42)
	b, _ := New(DefaultConfig(), 42)
	sa := a.Series(500)
	sb := b.Series(500)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, sa[i], sb[i])
		}
	}
	c, _ := New(DefaultConfig(), 43)
	sc := c.Series(500)
	same := true
	for i := range sa {
		if sa[i] != sc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical series")
	}
}

func TestEpochSequence(t *testing.T) {
	g, _ := New(DefaultConfig(), 1)
	e0, _ := g.Next()
	e1, _ := g.Next()
	if e0 != 0 || e1 != 1 {
		t.Fatalf("epochs = %d, %d", e0, e1)
	}
}

func TestDiurnalShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseStd = 0
	cfg.WeeklyAmplitude = 0
	g, _ := New(cfg, 1)
	day := g.Series(metrics.EpochsPerDay)
	// Peak should land mid-day (around epoch 48), trough near start/end.
	peakIdx := 0
	for i, v := range day {
		if v > day[peakIdx] {
			peakIdx = i
		}
	}
	if peakIdx < 40 || peakIdx > 56 {
		t.Fatalf("diurnal peak at epoch %d, want ~48", peakIdx)
	}
	if slices.Max(day) <= slices.Min(day) {
		t.Fatal("no diurnal variation")
	}
}

func TestWeekendDip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseStd = 0
	cfg.DiurnalAmplitude = 0
	g, _ := New(cfg, 1)
	week := g.Series(7 * metrics.EpochsPerDay)
	weekdayMean := mean(week[:5*metrics.EpochsPerDay])
	weekendMean := mean(week[5*metrics.EpochsPerDay:])
	if weekendMean >= weekdayMean {
		t.Fatalf("weekend %v >= weekday %v", weekendMean, weekdayMean)
	}
	want := weekdayMean * (1 - cfg.WeeklyAmplitude)
	if math.Abs(weekendMean-want) > 1e-9 {
		t.Fatalf("weekend mean = %v, want %v", weekendMean, want)
	}
}

func TestSpikeMultiplies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseStd = 0
	g, _ := New(cfg, 1)
	if err := g.AddSpike(Spike{Start: 10, Duration: 3, Magnitude: 2}); err != nil {
		t.Fatal(err)
	}
	ref, _ := New(cfg, 1)
	s := g.Series(20)
	r := ref.Series(20)
	for i := range s {
		want := r[i]
		if i >= 10 && i < 13 {
			want *= 2
		}
		if math.Abs(s[i]-want) > 1e-9 {
			t.Fatalf("epoch %d: %v, want %v", i, s[i], want)
		}
	}
}

func TestSpikeValidation(t *testing.T) {
	g, _ := New(DefaultConfig(), 1)
	if err := g.AddSpike(Spike{Duration: 0, Magnitude: 2}); err == nil {
		t.Fatal("want duration error")
	}
	if err := g.AddSpike(Spike{Duration: 5, Magnitude: 0}); err == nil {
		t.Fatal("want magnitude error")
	}
}

func TestIntensityPositiveAndBounded(t *testing.T) {
	g, _ := New(DefaultConfig(), 7)
	s := g.Series(10000)
	for i, v := range s {
		if v < 0.05 || v > 10 || math.IsNaN(v) {
			t.Fatalf("epoch %d: intensity %v out of sane range", i, v)
		}
	}
	m := mean(s)
	if m < 0.5 || m > 1.5 {
		t.Fatalf("long-run mean %v far from base 1.0", m)
	}
}

func TestNoiseAutocorrelation(t *testing.T) {
	cfg := Config{Base: 1, NoiseStd: 0.1, AR: 0.9}
	g, _ := New(cfg, 3)
	s := g.Series(20000)
	m := mean(s)
	num, den := 0.0, 0.0
	for i := 1; i < len(s); i++ {
		num += (s[i] - m) * (s[i-1] - m)
	}
	for _, v := range s {
		den += (v - m) * (v - m)
	}
	if ac := num / den; ac < 0.7 {
		t.Fatalf("lag-1 autocorrelation %v, want strong (>0.7) for AR=0.9", ac)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
