package dcsim

import (
	"context"
	"runtime"
	"slices"
	"testing"
)

// TestStreamNextAllocs pins the steady-state epoch-generation path at zero
// allocations: the stream generates into the spare of its two matrices and
// swaps them, so only the occasional on-the-fly crisis scheduling allocates
// (amortized far below one allocation per epoch). The rows of successive
// epochs alternate between exactly two backing matrices, a garbage
// collection in between included.
func TestStreamNextAllocs(t *testing.T) {
	s, err := NewStream(DefaultStreamConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	// Fill both buffers and pass the first schedule call.
	for i := 0; i < 8; i++ {
		if _, _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(400, func() {
		if _, _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("Stream.Next allocates %.2f objects/epoch in steady state, want 0", avg)
	}
	var backing []*float64
	for i := 0; i < 6; i++ {
		rows, _, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		backing = append(backing, &rows[0][0])
		runtime.GC()
	}
	for i, p := range backing {
		if p != backing[i%2] || backing[0] == backing[1] {
			t.Fatalf("epoch %d's rows are backed by %p; the stream cycles %p and %p", i, p, backing[0], backing[1])
		}
	}
}

// TestStreamCancelReturnsBuffers exercises the error paths of NextContext: a
// cancelled call generates into the spare buffer and leaves the last
// epoch's rows as they were, and the stream keeps cycling the same two
// buffers afterwards without allocating.
func TestStreamCancelReturnsBuffers(t *testing.T) {
	s, err := NewStream(DefaultStreamConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	last := slices.Clone(rows[0])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.NextContext(ctx); err == nil {
		t.Fatal("cancelled NextContext succeeded")
	}
	if !slices.Equal(rows[0], last) {
		t.Fatal("a cancelled NextContext overwrote the last epoch's rows")
	}
	if _, _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("post-cancel Stream.Next allocates %.2f objects/epoch, want 0", avg)
	}
}

// TestFaultInjectorRecycleSafe drives a hostile injector while recycling
// every emission immediately after inspecting it; duplicated and delayed
// epochs own their storage, so recycling one emission must never corrupt a
// later one. The assertion is that every emitted epoch's first surviving row
// matches a reference run that never recycles.
func TestFaultInjectorRecycleSafe(t *testing.T) {
	build := func() *FaultInjector {
		s, err := NewStream(DefaultStreamConfig(9))
		if err != nil {
			t.Fatal(err)
		}
		fcfg := DefaultFaultConfig(17)
		fcfg.DuplicateRate = 0.3
		fcfg.DelayRate = 0.3
		inj, err := NewFaultInjector(s, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}

	const epochs = 300
	type emission struct {
		epoch int64
		row0  []float64
	}
	ref := make([]emission, 0, epochs)
	inj := build()
	for i := 0; i < epochs; i++ {
		ep, err := inj.Next()
		if err != nil {
			t.Fatal(err)
		}
		var row0 []float64
		for _, r := range ep.Rows {
			if r != nil {
				row0 = append([]float64(nil), r...)
				break
			}
		}
		ref = append(ref, emission{ep.Epoch, row0})
	}

	inj = build()
	for i := 0; i < epochs; i++ {
		ep, err := inj.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ep.Epoch != ref[i].epoch {
			t.Fatalf("emission %d: epoch %d, want %d", i, ep.Epoch, ref[i].epoch)
		}
		var row0 []float64
		for _, r := range ep.Rows {
			if r != nil {
				row0 = r
				break
			}
		}
		if (row0 == nil) != (ref[i].row0 == nil) {
			t.Fatalf("emission %d: row presence mismatch", i)
		}
		for j := range row0 {
			if got, want := row0[j], ref[i].row0[j]; got != want && !(got != got && want != want) {
				t.Fatalf("emission %d: row cell %d = %v, want %v (recycle clobbered a live epoch)",
					i, j, got, want)
			}
		}
		inj.Recycle(ep)
	}
}

// TestFaultInjectorRecycleAllocs: a consumer that recycles every emission
// gets later emissions backed by the recycled matrices, so after warm-up the
// injector allocates no matrix — duplicates' clones and delayed epochs
// included. What it still allocates per emission is its own bookkeeping
// (the cloned crisis instance, the delay queue), never an epoch's storage.
func TestFaultInjectorRecycleAllocs(t *testing.T) {
	s, err := NewStream(DefaultStreamConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	fcfg := DefaultFaultConfig(17)
	fcfg.DuplicateRate, fcfg.DelayRate = 0.2, 0.2
	inj, err := NewFaultInjector(s, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		ep, err := inj.Next()
		if err != nil {
			t.Fatal(err)
		}
		inj.Recycle(ep)
	}
	for i := 0; i < 200; i++ {
		step()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const epochs = 400
	for i := 0; i < epochs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	// Less than one epoch's matrix in all: a single fresh one would show.
	matrix := uint64(8 * s.cfg.Machines * s.cat.Len())
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= matrix {
		t.Errorf("%d recycled emissions allocated %d B, want less than one %d B matrix", epochs, grew, matrix)
	}
}
