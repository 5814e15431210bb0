package logreg_test

import (
	"fmt"
	"runtime"
	"testing"

	"dcfp/internal/logreg"
)

// TestSelectTopKLanesBitIdentical runs the §3.4 path with one, two and four
// lanes (GOMAXPROCS) on the benchmark's generator and on samples a monitor
// collected, and requires the ranking, every weight and the bias (by
// math.Float64bits), the penalty, and the steps, iterations, certified tests
// and exact checks summed over them to equal the one-lane path's; on the generator, the
// ranking and model must also be the row-oriented reference's. The cases
// include a path whose first step already activates k, one where no step
// does (all twelve run), and k = 1. Each laned path runs several times, so
// that the lanes finish their steps in different orders.
func TestSelectTopKLanesBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type pathCase struct {
		name   string
		x      [][]float64
		y      []int
		k      int
		steps  int  // the path's length, when the case is there to pin it
		oracle bool // also hold the one-lane path to the reference
	}
	latent, err := logreg.LatentSamples(400, 30)
	if err != nil {
		t.Fatal(err)
	}
	lx, ly := latent.Rows()
	cases := []pathCase{
		{"generator k=10", lx, ly, 10, 0, true},
		{"generator, step 0 reaches k", lx, ly, 2, 1, true},
		{"generator, no step reaches k", lx, ly, 31, 12, true},
		{"generator k=1", lx, ly, 1, 0, true},
	}
	for _, c := range monitorCrises(t, 1) {
		cases = append(cases, pathCase{c.id, c.x, c.y, c.k, 0, false}, pathCase{c.id + " k=1", c.x, c.y, 1, 0, false})
	}
	repeats := 6
	if testing.Short() {
		repeats = 1
	}
	for _, c := range cases {
		var wantTop []int
		var want *logreg.Model
		var serial logreg.PathStats
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < repeats && (rep == 0 || procs > 1); rep++ {
				what := fmt.Sprintf("%s, %d lanes, run %d", c.name, procs, rep)
				s, err := logreg.NewSamples(c.x, c.y)
				if err != nil {
					t.Fatal(err)
				}
				top, m, st, err := s.SelectTopK(c.k)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if procs > 1 {
					if fmt.Sprint(top) != fmt.Sprint(wantTop) {
						t.Fatalf("%s: top = %v, one lane %v", what, top, wantTop)
					}
					logreg.SameModel(t, what, m, want)
					if st.Positives != serial.Positives || st.Steps != serial.Steps || st.Iters != serial.Iters ||
						st.Certified != serial.Certified || st.ExactChecks != serial.ExactChecks {
						t.Fatalf("%s: path stats %+v, one lane %+v", what, st, serial)
					}
					continue
				}
				wantTop, want, serial = top, m, st
				if c.steps != 0 && st.Steps != c.steps {
					t.Fatalf("%s: %d steps, want %d", what, st.Steps, c.steps)
				}
				if !c.oracle {
					continue
				}
				oracleTop, oracle, err := logreg.OracleSelectTopK(c.x, c.y, c.k)
				if err != nil {
					t.Fatalf("%s: oracle: %v", what, err)
				}
				if fmt.Sprint(top) != fmt.Sprint(oracleTop) {
					t.Fatalf("%s: top = %v, oracle %v", what, top, oracleTop)
				}
				logreg.SameModel(t, what, m, oracle)
			}
		}
	}
}
