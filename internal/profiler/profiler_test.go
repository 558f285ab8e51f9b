package profiler

import (
	"testing"

	"simprof/internal/cpu"
	"simprof/internal/jvm"
	"simprof/internal/model"
)

// runSimple executes nSeg segments of segInstr instructions each on one
// thread and collects with the given profiler config.
func runSimple(t *testing.T, nSeg int, segInstr uint64, cfg Config) (*jvm.VM, *cpu.Result, *Config) {
	t.Helper()
	vm := jvm.NewVM()
	b := vm.SpawnThread("exec-0").PushM("java.lang.Thread", "run", model.KindFramework)
	for i := 0; i < nSeg; i++ {
		b.SetTask(i, i%2)
		b.PushM("W", "op"+string(rune('a'+i%3)), model.KindMap)
		b.Exec(segInstr, 0.5, cpu.Access{Kind: cpu.PatternSequential, WorkingSet: 4 << 10, Refs: 0.3})
		b.Pop()
	}
	mcfg := cpu.DefaultConfig()
	mcfg.Cores = 1
	mcfg.MigrationRate, mcfg.NoiseCoV = 0, 0
	m, err := cpu.NewMachine(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(vm.Threads())
	if err != nil {
		t.Fatal(err)
	}
	return vm, &res, &cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{UnitInstr: 0, SnapshotEvery: 10},
		{UnitInstr: 100, SnapshotEvery: 0},
		{UnitInstr: 100, SnapshotEvery: 200},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestUnitsHaveExactSizeAndSnapshotCount(t *testing.T) {
	cfg := Config{UnitInstr: 1000, SnapshotEvery: 100}
	vm, res, _ := runSimple(t, 25, 200, cfg) // 5000 instr → 5 units
	tr, err := Collect(*res, vm.Table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Units) != 5 {
		t.Fatalf("units=%d want 5", len(tr.Units))
	}
	for i, u := range tr.Units {
		if u.Counters.Instructions != 1000 {
			t.Fatalf("unit %d instr=%d", i, u.Counters.Instructions)
		}
		if n := tr.Snapshots(i).Len(); n != 10 {
			t.Fatalf("unit %d snapshots=%d want 10", i, n)
		}
		if u.ID != i || u.Index != i || u.Thread != 0 {
			t.Fatalf("unit %d ids wrong: %+v", i, u)
		}
		if u.CPI() <= 0 {
			t.Fatalf("unit %d cpi=%v", i, u.CPI())
		}
	}
}

func TestTrailingPartialUnitDropped(t *testing.T) {
	cfg := Config{UnitInstr: 1000, SnapshotEvery: 100}
	vm, res, _ := runSimple(t, 7, 200, cfg) // 1400 instr → 1 unit + 400 dropped
	tr, err := Collect(*res, vm.Table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Units) != 1 {
		t.Fatalf("units=%d want 1", len(tr.Units))
	}
}

func TestSegmentSpanningUnitsProrated(t *testing.T) {
	// One huge segment split over 4 units: each unit gets 1/4 of its
	// cycles/misses.
	vm := jvm.NewVM()
	b := vm.SpawnThread("exec").PushM("T", "run", model.KindFramework)
	b.PushM("W", "scan", model.KindMap)
	b.Exec(4000, 0.5, cpu.Access{Kind: cpu.PatternRandom, WorkingSet: 64 << 20, Refs: 0.3})
	mcfg := cpu.DefaultConfig()
	mcfg.Cores, mcfg.MigrationRate, mcfg.NoiseCoV = 1, 0, 0
	m, _ := cpu.NewMachine(mcfg)
	res, _ := m.Run(vm.Threads())
	cfg := Config{UnitInstr: 1000, SnapshotEvery: 500}
	tr, err := Collect(res, vm.Table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Units) != 4 {
		t.Fatalf("units=%d want 4", len(tr.Units))
	}
	c0 := tr.Units[0].Counters
	for i, u := range tr.Units {
		if d := int64(u.Counters.Cycles) - int64(c0.Cycles); d > 1 || d < -1 {
			t.Fatalf("unit %d cycles %d != %d", i, u.Counters.Cycles, c0.Cycles)
		}
		if d := int64(u.Counters.LLCMisses) - int64(c0.LLCMisses); d > 1 || d < -1 {
			t.Fatalf("unit %d llc misses %d != %d", i, u.Counters.LLCMisses, c0.LLCMisses)
		}
	}
}

func TestStagesRecorded(t *testing.T) {
	cfg := Config{UnitInstr: 1000, SnapshotEvery: 100}
	vm, res, _ := runSimple(t, 25, 200, cfg)
	tr, _ := Collect(*res, vm.Table, cfg)
	for u := range tr.Units {
		stages := tr.Stages(u)
		if len(stages) == 0 {
			t.Fatal("unit lost stage tags")
		}
		for i := 1; i < len(stages); i++ {
			if stages[i] <= stages[i-1] {
				t.Fatalf("stages not sorted/unique: %v", stages)
			}
		}
	}
}

// TestPartialUnitLeavesNoColumns: the trailing partial unit of a stream
// is discarded with its snapshots and stages, so the columns hold
// exactly the kept units' entries, in unit order.
func TestPartialUnitLeavesNoColumns(t *testing.T) {
	cfg := Config{UnitInstr: 1000, SnapshotEvery: 100}
	vm, res, _ := runSimple(t, 27, 200, cfg) // 5400 instr → 5 units + a partial one
	tr, err := Collect(*res, vm.Table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Units) != 5 || len(tr.FrameOff) != 5*10+1 {
		t.Fatalf("%d units, %d stacks; want 5 units, 50 stacks", len(tr.Units), len(tr.FrameOff)-1)
	}
	last := tr.Units[4]
	if int(last.Snapshots.Hi) != len(tr.FrameOff)-1 || int(last.Stages.Hi) != len(tr.StageIDs) ||
		int(tr.FrameOff[last.Snapshots.Hi]) != len(tr.Frames) {
		t.Fatalf("columns run past the last unit: %+v", last)
	}
}

func TestMergePerCore(t *testing.T) {
	// 6 short-lived "task" threads on 2 cores (Hadoop style): merged
	// into 2 profiled streams, so unit count reflects per-core totals.
	vm := jvm.NewVM()
	for i := 0; i < 6; i++ {
		b := vm.SpawnThread("task").PushM("org.apache.hadoop.mapred.YarnChild", "main", model.KindFramework)
		b.SetTask(i, 0)
		b.PushM("M", "map", model.KindMap)
		b.Exec(900, 0.5, cpu.Access{Kind: cpu.PatternSequential, WorkingSet: 4 << 10, Refs: 0.3})
		b.Pop()
	}
	mcfg := cpu.DefaultConfig()
	mcfg.Cores, mcfg.MigrationRate, mcfg.NoiseCoV = 2, 0, 0
	m, _ := cpu.NewMachine(mcfg)
	res, _ := m.Run(vm.Threads())

	merged, err := Collect(res, vm.Table, Config{UnitInstr: 1000, SnapshotEvery: 100, MergePerCore: true})
	if err != nil {
		t.Fatal(err)
	}
	// 3 tasks × 900 = 2700 instr per core → 2 units per core → 4 total.
	if len(merged.Units) != 4 {
		t.Fatalf("merged units=%d want 4", len(merged.Units))
	}
	threads := map[int]bool{}
	for _, u := range merged.Units {
		threads[u.Thread] = true
	}
	if len(threads) != 2 {
		t.Fatalf("merged streams=%d want 2 (one per core)", len(threads))
	}

	// Without merging, every 900-instruction task thread is below the
	// unit size, so no units survive.
	plain, _ := Collect(res, vm.Table, Config{UnitInstr: 1000, SnapshotEvery: 100})
	if len(plain.Units) != 0 {
		t.Fatalf("unmerged short threads yielded %d units", len(plain.Units))
	}
}

func TestSnapshotsObserveActiveStack(t *testing.T) {
	vm := jvm.NewVM()
	b := vm.SpawnThread("exec").PushM("T", "run", model.KindFramework)
	mapID := vm.Table.Intern("W", "map", model.KindMap)
	sortID := vm.Table.Intern("W", "sort", model.KindSort)
	b.Push(mapID).Exec(500, 0.5, cpu.Access{}).Pop()
	b.Push(sortID).Exec(500, 0.5, cpu.Access{}).Pop()
	mcfg := cpu.DefaultConfig()
	mcfg.Cores, mcfg.MigrationRate, mcfg.NoiseCoV = 1, 0, 0
	m, _ := cpu.NewMachine(mcfg)
	res, _ := m.Run(vm.Threads())
	tr, _ := Collect(res, vm.Table, Config{UnitInstr: 1000, SnapshotEvery: 100})
	if len(tr.Units) != 1 {
		t.Fatalf("units=%d", len(tr.Units))
	}
	snaps := tr.Snapshots(0)
	if snaps.Len() != 10 {
		t.Fatalf("snapshots=%d", snaps.Len())
	}
	for i := 0; i < 5; i++ {
		if snaps.At(i).Leaf() != mapID {
			t.Fatalf("snapshot %d leaf=%v want map", i, snaps.At(i).Leaf())
		}
	}
	for i := 5; i < 10; i++ {
		if snaps.At(i).Leaf() != sortID {
			t.Fatalf("snapshot %d leaf=%v want sort", i, snaps.At(i).Leaf())
		}
	}
}

func TestCollectInvalidConfig(t *testing.T) {
	if _, err := Collect(cpu.Result{}, model.NewTable(), Config{}); err == nil {
		t.Fatal("invalid config should fail")
	}
}

func TestMergeOrderFollowsStartCycles(t *testing.T) {
	// Two task threads on one core: the merged stream must order their
	// units by when the tasks actually ran.
	vm := jvm.NewVM()
	first := vm.Table.Intern("T1", "map", model.KindMap)
	second := vm.Table.Intern("T2", "map", model.KindMap)
	for i, m := range []model.MethodID{first, second} {
		b := vm.SpawnThread("task").PushM("org.apache.hadoop.mapred.YarnChild", "main", model.KindFramework)
		b.SetTask(i, 0)
		b.Push(m)
		b.Exec(2000, 0.5, cpu.Access{Kind: cpu.PatternSequential, WorkingSet: 4 << 10, Refs: 0.3})
		b.Pop()
	}
	mcfg := cpu.DefaultConfig()
	mcfg.Cores, mcfg.MigrationRate, mcfg.NoiseCoV = 1, 0, 0
	m, _ := cpu.NewMachine(mcfg)
	res, _ := m.Run(vm.Threads())
	tr, err := Collect(res, vm.Table, Config{UnitInstr: 1000, SnapshotEvery: 100, MergePerCore: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Units) != 4 {
		t.Fatalf("units=%d want 4", len(tr.Units))
	}
	// First two units belong to the first-run task, last two to the
	// second (FIFO core scheduling runs them in spawn order).
	if tr.Snapshots(0).At(0).Leaf() != first || tr.Snapshots(3).At(0).Leaf() != second {
		t.Fatal("merged stream not ordered by task start")
	}
	// Start cycles are monotone within the merged stream.
	for i := 1; i < len(tr.Units); i++ {
		if tr.Units[i].StartCycle < tr.Units[i-1].StartCycle {
			t.Fatal("merged start cycles not monotone")
		}
	}
}
