package experiment

import (
	"math"
	"testing"

	"dcfp/internal/core"
	"dcfp/internal/sla"
)

func statusSeries(n, machines int, violPerKPI func(e int) []int) []sla.EpochStatus {
	out := make([]sla.EpochStatus, n)
	for e := range out {
		v := violPerKPI(e)
		any := 0
		for _, x := range v {
			if x > any {
				any = x
			}
		}
		out[e] = sla.EpochStatus{ViolatingPerKPI: v, ViolatingAny: any, Machines: machines}
	}
	return out
}

func TestNewKPIFingerprinterValidation(t *testing.T) {
	if _, err := newKPIFingerprinter(nil); err == nil {
		t.Fatal("want empty-series error")
	}
}

func TestKPICrisisFingerprint(t *testing.T) {
	// 100 machines; KPI0 violations ramp to 40 from epoch 10 on.
	st := statusSeries(30, 100, func(e int) []int {
		if e >= 10 {
			return []int{40, 0, 0}
		}
		return []int{0, 0, 0}
	})
	k, err := newKPIFingerprinter(st)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := k.crisisFingerprint(10, core.DefaultSummaryRange())
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 3 {
		t.Fatalf("fp = %v", fp)
	}
	// Window 8..14: 5 of 7 epochs at 0.40 -> mean 2/7.
	want := 0.4 * 5 / 7
	if math.Abs(fp[0]-want) > 1e-12 || fp[1] != 0 || fp[2] != 0 {
		t.Fatalf("fp = %v, want [%v 0 0]", fp, want)
	}
}

func TestKPICrisisFingerprintUpTo(t *testing.T) {
	st := statusSeries(30, 100, func(e int) []int {
		if e >= 10 {
			return []int{40, 0, 0}
		}
		return []int{0, 0, 0}
	})
	k, _ := newKPIFingerprinter(st)
	fp, err := k.crisisFingerprintUpTo(10, core.DefaultSummaryRange(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fp[0]-0.4/3) > 1e-12 {
		t.Fatalf("fp = %v, want 0.4/3", fp[0])
	}
}

func TestKPIWindowClampingAndErrors(t *testing.T) {
	st := statusSeries(5, 10, func(e int) []int { return []int{1} })
	k, _ := newKPIFingerprinter(st)
	if _, err := k.crisisFingerprint(0, core.DefaultSummaryRange()); err != nil {
		t.Fatal(err)
	}
	if _, err := k.crisisFingerprint(100, core.DefaultSummaryRange()); err == nil {
		t.Fatal("want out-of-range error")
	}
	bad := statusSeries(5, 0, func(e int) []int { return []int{0} })
	kb, _ := newKPIFingerprinter(bad)
	if _, err := kb.crisisFingerprint(2, core.DefaultSummaryRange()); err == nil {
		t.Fatal("want zero-machines error")
	}
}

func TestKPISameViolationPatternIndistinguishable(t *testing.T) {
	// The KPI baseline's core weakness: two different crisis types that
	// violate the same KPI with the same machine count produce identical
	// fingerprints.
	st := statusSeries(60, 100, func(e int) []int {
		if (e >= 10 && e < 15) || (e >= 40 && e < 45) {
			return []int{0, 30, 0}
		}
		return []int{0, 0, 0}
	})
	k, _ := newKPIFingerprinter(st)
	a, err := k.crisisFingerprint(10, core.DefaultSummaryRange())
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.crisisFingerprint(40, core.DefaultSummaryRange())
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Distance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("distance = %v, want 0 for identical KPI patterns", d)
	}
}
