package trace

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"simprof/internal/model"
)

func sampleTrace() *Trace {
	tbl := model.NewTable()
	m1 := tbl.Intern("A", "map", model.KindMap)
	m2 := tbl.Intern("B", "reduce", model.KindReduce)
	tr := &Trace{
		Benchmark: "wc", Framework: "spark", Input: "text-10g", Seed: 1,
		UnitInstr: 100, SnapshotEvery: 10,
		Methods: tbl.Methods(),
		Units: []Unit{
			{ID: 0, Counters: Counters{Instructions: 100, Cycles: 150}},
			{ID: 1, Counters: Counters{Instructions: 100, Cycles: 250}},
		},
	}
	setSnaps(tr, 0, model.Stack{m1})
	setSnaps(tr, 1, model.Stack{m2})
	return tr
}

func TestCountersCPIAndIPC(t *testing.T) {
	c := Counters{Instructions: 200, Cycles: 300}
	if c.CPI() != 1.5 {
		t.Fatalf("CPI=%v", c.CPI())
	}
	if c.IPC() != 200.0/300.0 {
		t.Fatalf("IPC=%v", c.IPC())
	}
	var z Counters
	if z.CPI() != 0 || z.IPC() != 0 {
		t.Fatal("zero counters should give 0 CPI/IPC")
	}
	z.Add(c)
	if z.Instructions != 200 || z.Cycles != 300 {
		t.Fatalf("Add=%+v", z)
	}
}

func TestNameAbbreviation(t *testing.T) {
	tr := sampleTrace()
	if tr.Name() != "wc_sp" {
		t.Fatalf("Name=%q", tr.Name())
	}
	tr.Framework = "hadoop"
	if tr.Name() != "wc_hp" {
		t.Fatalf("Name=%q", tr.Name())
	}
	tr.Framework = "flink"
	if tr.Name() != "wc_flink" {
		t.Fatalf("Name=%q", tr.Name())
	}
}

func TestOracleCPIAndCPIs(t *testing.T) {
	tr := sampleTrace()
	if got := tr.OracleCPI(); got != 2.0 {
		t.Fatalf("OracleCPI=%v want 2.0", got)
	}
	cpis := tr.CPIs()
	if len(cpis) != 2 || cpis[0] != 1.5 || cpis[1] != 2.5 {
		t.Fatalf("CPIs=%v", cpis)
	}
	var empty Trace
	if empty.OracleCPI() != 0 {
		t.Fatal("empty OracleCPI should be 0")
	}
}

func TestTableRoundTrip(t *testing.T) {
	tr := sampleTrace()
	tbl, err := tr.Table()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("table len=%d", tbl.Len())
	}
	if tbl.FQN(0) != "A.map" || tbl.Kind(1) != model.KindReduce {
		t.Fatal("table content lost")
	}
}

func TestGobRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.EncodeGob(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != tr.Name() || len(got.Units) != 2 || got.Units[1].CPI() != 2.5 {
		t.Fatalf("gob round trip lost data: %+v", got)
	}
	if got.Units[0].Snapshots.Len() != 1 {
		t.Fatal("snapshots lost")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeGob(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage gob should fail")
	}
}

// TestUnitIsPointerFree guards the row layout: a Unit holds no
// pointer-bearing field (slice, map, pointer, string, interface, chan or
// func, at any depth), so a trace's unit array is one allocation the
// garbage collector never scans, and a row stays at most 96 B.
func TestUnitIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(Unit{}); size > 96 {
		t.Errorf("trace.Unit is %d B, want at most 96", size)
	}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Slice, reflect.Map, reflect.Pointer, reflect.String, reflect.Interface,
			reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Errorf("%s is a %s: a unit row must hold no pointer", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(Unit{}), "Unit")
}
