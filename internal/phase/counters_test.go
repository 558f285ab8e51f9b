package phase

import (
	"testing"

	"simprof/internal/model"
	"simprof/internal/trace"
)

func TestCounterProfile(t *testing.T) {
	tbl := model.NewTable()
	fast := tbl.Intern("A", "map", model.KindMap)
	slow := tbl.Intern("B", "reduce", model.KindReduce)
	tr := &trace.Trace{Methods: tbl.Methods()}
	add := func(m model.MethodID, cyc, llc uint64) {
		u := trace.Unit{ID: len(tr.Units)}
		for s := 0; s < 10; s++ {
			tr.AppendSnapshot(&u, model.Stack{m})
		}
		u.Counters = trace.Counters{Instructions: 1000, Cycles: cyc, L1Misses: llc * 3, L2Misses: llc * 2, LLCMisses: llc}
		tr.Units = append(tr.Units, u)
	}
	for i := 0; i < 30; i++ {
		add(fast, 900, 0)
		add(slow, 2500, 40) // 40 LLC misses per kilo-instruction
	}
	ph, err := Form(tr, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ph.K != 2 {
		t.Fatalf("K=%d", ph.K)
	}
	prof := ph.CounterProfile()
	// Identify phases by CPI.
	var fastP, slowP CounterStats
	if prof[0].CPI.Mean < prof[1].CPI.Mean {
		fastP, slowP = prof[0], prof[1]
	} else {
		fastP, slowP = prof[1], prof[0]
	}
	if slowP.LLCMPKI != 40 {
		t.Fatalf("slow phase LLC MPKI=%v want 40", slowP.LLCMPKI)
	}
	if fastP.LLCMPKI != 0 {
		t.Fatalf("fast phase LLC MPKI=%v want 0", fastP.LLCMPKI)
	}
	if fastP.IPCMean <= slowP.IPCMean {
		t.Fatal("fast phase should have higher IPC")
	}
	if fastP.Units+slowP.Units != len(tr.Units) {
		t.Fatal("unit counts lost")
	}
	// Hierarchy sanity: L1 ≥ L2 ≥ LLC misses.
	if slowP.L1MPKI < slowP.L2MPKI || slowP.L2MPKI < slowP.LLCMPKI {
		t.Fatalf("MPKI hierarchy violated: %+v", slowP)
	}
}
