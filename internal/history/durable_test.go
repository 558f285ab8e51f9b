package history

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"simprof/internal/faults"
	"simprof/internal/obs"
)

// seedStore appends n small records durably and returns the store path
// plus the committed file bytes.
func seedStore(t *testing.T, n int) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "history.jsonl")
	st := OpenDurable(path)
	for i := 0; i < n; i++ {
		if _, err := st.Append(&Record{Key: "k", Note: strings.Repeat("x", i%7), Time: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestRecoverTailEveryTruncation is the crash-recovery property test:
// a store truncated at EVERY byte offset — every possible point a
// kill-during-append could leave the file at — recovers to a clean
// prefix of the committed records. After RecoverTail, Records reports
// zero skipped lines and the surviving records are exactly records
// 1..k in order for some k, with k covering all committed records
// whenever the truncation point sits at a record boundary.
func TestRecoverTailEveryTruncation(t *testing.T) {
	_, data := seedStore(t, 6)
	full := OpenDurable(filepath.Join(t.TempDir(), "ref.jsonl"))
	if err := os.WriteFile(full.Path(), data, 0o644); err != nil {
		t.Fatal(err)
	}
	committed, _, err := full.Records()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "cut.jsonl")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st := OpenDurable(path)
		dropped, err := st.RecoverTail()
		if err != nil {
			t.Fatalf("cut=%d: RecoverTail: %v", cut, err)
		}
		recs, skipped, err := st.Records()
		if err != nil {
			t.Fatalf("cut=%d: Records after recovery: %v", cut, err)
		}
		if skipped != 0 {
			t.Fatalf("cut=%d: %d corrupt lines survived recovery", cut, skipped)
		}
		for i, r := range recs {
			if r.Seq != committed[i].Seq || r.Note != committed[i].Note {
				t.Fatalf("cut=%d: record %d = seq %d note %q, want seq %d note %q",
					cut, i, r.Seq, r.Note, committed[i].Seq, committed[i].Note)
			}
		}
		// A cut on a record boundary loses nothing.
		if dropped == 0 && len(recs) != lineCount(data[:cut]) {
			t.Fatalf("cut=%d: clean file but %d records for %d lines", cut, len(recs), lineCount(data[:cut]))
		}
		// Recovery is idempotent.
		if d2, err := st.RecoverTail(); err != nil || d2 != 0 {
			t.Fatalf("cut=%d: second RecoverTail = (%d, %v), want (0, nil)", cut, d2, err)
		}
	}
}

func lineCount(b []byte) int { return strings.Count(string(b), "\n") }

// TestRecoverTailCorruptLastLine: a tail whose final line is complete
// but scribbled (torn write flushed garbage) is dropped too.
func TestRecoverTailCorruptLastLine(t *testing.T) {
	path, data := seedStore(t, 3)
	if err := os.WriteFile(path, append(data, []byte("{\"seq\": garbage}\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	st := OpenDurable(path)
	dropped, err := st.RecoverTail()
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("corrupt final line not dropped")
	}
	recs, skipped, err := st.Records()
	if err != nil || skipped != 0 || len(recs) != 3 {
		t.Fatalf("after recovery: %d records, %d skipped, err=%v; want 3, 0, nil", len(recs), skipped, err)
	}
}

// TestRecoverTailMissingStore: recovering a store that was never
// written is a no-op, not an error.
func TestRecoverTailMissingStore(t *testing.T) {
	st := OpenDurable(filepath.Join(t.TempDir(), "absent.jsonl"))
	if dropped, err := st.RecoverTail(); err != nil || dropped != 0 {
		t.Fatalf("RecoverTail on missing store = (%d, %v)", dropped, err)
	}
}

// TestDurableAppendThenRead: records appended durably read back with
// sequential seqs; durable and plain handles interoperate on one file.
func TestDurableAppendThenRead(t *testing.T) {
	path, _ := seedStore(t, 2)
	if _, err := Open(path).Append(&Record{Key: "k2"}); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := OpenDurable(path).Records()
	if err != nil || skipped != 0 {
		t.Fatalf("Records: skipped=%d err=%v", skipped, err)
	}
	if len(recs) != 3 || recs[2].Seq != 3 {
		t.Fatalf("got %d records, last seq %d; want 3 records ending at seq 3", len(recs), recs[len(recs)-1].Seq)
	}
}

// TestDurableAppendAfterTornWrite: a write that fails part-way (the
// faults torn-write channel) leaves an unterminated fragment, and the
// retried Append must not glue its record onto it. The acknowledged
// record reads back by seq, survives the next RecoverTail, and the
// store reads with no skipped line.
func TestDurableAppendAfterTornWrite(t *testing.T) {
	path, _ := seedStore(t, 1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	line, _ := json.Marshal(&Record{Seq: 2, Key: "torn"})
	w := faults.NewIO(faults.Config{TornWrite: 1, Seed: 3}).Writer(f)
	if _, err := w.Write(append(line, '\n')); !errors.Is(err, faults.ErrTornWrite) {
		t.Fatalf("torn writer returned %v", err)
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.HasSuffix(data, []byte("\n")) {
		t.Fatal("torn write left no unterminated fragment")
	}

	st := OpenDurable(path)
	rec, err := st.Append(&Record{Key: "retried", Time: "t"})
	if err != nil {
		t.Fatalf("Append after torn write: %v", err)
	}
	if rec.Seq != 2 {
		t.Fatalf("Append assigned seq %d, want 2", rec.Seq)
	}
	got, err := st.Get(2)
	if err != nil || got.Key != "retried" {
		t.Fatalf("Get(2) = %+v, %v; want the acknowledged record", got, err)
	}
	dropped, err := st.RecoverTail()
	if err != nil || dropped != 0 {
		t.Fatalf("RecoverTail dropped %d bytes (err %v) of an acknowledged store", dropped, err)
	}
	recs, skipped, err := st.Records()
	if err != nil || skipped != 0 || len(recs) != 2 || recs[1].Key != "retried" {
		t.Fatalf("Records: %d records, skipped=%d, err=%v; want 2 clean records", len(recs), skipped, err)
	}
}

// checkSeqs reads the store at path and fails unless it holds exactly
// the records 1..n in order with no skipped line.
func checkSeqs(t *testing.T, path string, n int) {
	t.Helper()
	recs, skipped, err := Open(path).Records()
	if err != nil || skipped != 0 {
		t.Fatalf("Records: skipped=%d err=%v", skipped, err)
	}
	if len(recs) != n {
		t.Fatalf("store holds %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != i+1 {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, i+1)
		}
	}
}

// appendSeq appends one small record through st and returns its seq.
func appendSeq(t *testing.T, st *Store) int {
	t.Helper()
	r, err := st.Append(&Record{Key: "k", Time: "t"})
	if err != nil {
		t.Fatal(err)
	}
	return r.Seq
}

// TestDurableInterleavedHandles: two warm handles on one path see each
// other's appends (the bytes past their validated prefix), so seqs stay
// unique and sequential whichever handle appends.
func TestDurableInterleavedHandles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	a, b := OpenDurable(path), Open(path)
	for i, who := range "aabababbbaab" {
		st := a
		if who == 'b' {
			st = b
		}
		if seq := appendSeq(t, st); seq != i+1 {
			t.Fatalf("append %d through %c got seq %d, want %d", i, who, seq, i+1)
		}
	}
	checkSeqs(t, path, 12)
}

// TestDurableRescanAfterShrink: a store reset in place with
// os.WriteFile is shorter than the handle's validated prefix, so the
// warm handle rescans and numbers from what the file now holds.
func TestDurableRescanAfterShrink(t *testing.T) {
	path, _ := seedStore(t, 2)
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st := OpenDurable(path)
	for i := 3; i <= 5; i++ {
		if seq := appendSeq(t, st); seq != i {
			t.Fatalf("warm-up append got seq %d, want %d", seq, i)
		}
	}
	if err := os.WriteFile(path, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	if seq := appendSeq(t, st); seq != 3 {
		t.Fatalf("append after reset to 2 records got seq %d, want 3", seq)
	}
	checkSeqs(t, path, 3)

	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if seq := appendSeq(t, st); seq != 1 {
		t.Fatalf("append after reset to empty got seq %d, want 1", seq)
	}
	checkSeqs(t, path, 1)
}

// TestDurableRescanAfterReplace: a store replaced by rename is a new
// file. The replacement holds fewer records than the old store but more
// bytes, so only the file identity check makes the warm handle rescan
// it instead of reading from a stale offset with a stale max seq.
func TestDurableRescanAfterReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "history.jsonl")
	st := OpenDurable(path)
	for i := 0; i < 10; i++ {
		appendSeq(t, st)
	}
	next := filepath.Join(dir, "next.jsonl")
	other := Open(next)
	for i := 0; i < 3; i++ {
		if _, err := other.Append(&Record{Key: "replacement", Note: strings.Repeat("y", 200), Time: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Rename(next, path); err != nil {
		t.Fatal(err)
	}
	if seq := appendSeq(t, st); seq != 4 {
		t.Fatalf("append after replacement got seq %d, want 4", seq)
	}
	checkSeqs(t, path, 4)
}

// TestDurableWarmAppendAfterTornWrite: another writer appends a record
// and then tears its next write after the handle has warmed up. The
// warm handle reads both past its validated prefix, truncates the
// fragment and continues the sequence.
func TestDurableWarmAppendAfterTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	st := OpenDurable(path)
	appendSeq(t, st)
	appendSeq(t, st)
	if seq := appendSeq(t, Open(path)); seq != 3 {
		t.Fatalf("other writer got seq %d, want 3", seq)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	line, _ := json.Marshal(&Record{Seq: 4, Key: "torn"})
	w := faults.NewIO(faults.Config{TornWrite: 1, Seed: 5}).Writer(f)
	if _, err := w.Write(append(line, '\n')); !errors.Is(err, faults.ErrTornWrite) {
		t.Fatalf("torn writer returned %v", err)
	}
	f.Close()

	if seq := appendSeq(t, st); seq != 4 {
		t.Fatalf("warm append after torn write got seq %d, want 4", seq)
	}
	checkSeqs(t, path, 4)
	if dropped, err := st.RecoverTail(); err != nil || dropped != 0 {
		t.Fatalf("RecoverTail dropped %d bytes (err %v) of an acknowledged store", dropped, err)
	}
}

// TestDurableConcurrentAppendsOneHandle: goroutines sharing one handle
// get unique seqs and never interleave their lines (run under -race in
// chaos-smoke).
func TestDurableConcurrentAppendsOneHandle(t *testing.T) {
	const workers, each = 8, 10
	path := filepath.Join(t.TempDir(), "history.jsonl")
	st := OpenDurable(path)
	seqs := make(chan int, workers*each)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r, err := st.Append(&Record{Key: "k", Time: "t"})
				if err != nil {
					t.Error(err)
					return
				}
				seqs <- r.Seq
			}
		}()
	}
	wg.Wait()
	close(seqs)
	seen := map[int]bool{}
	for seq := range seqs {
		if seen[seq] {
			t.Fatalf("seq %d handed out twice", seq)
		}
		seen[seq] = true
	}
	checkSeqs(t, path, workers*each)
}

// benchRecord is a simprofd-shaped profile record.
func benchRecord() *Record {
	m := obs.NewManifest("simprofd profile", nil)
	m.Workload = &obs.WorkloadInfo{Benchmark: "wc", Framework: "spark", Seed: 1, Units: 1000, UnitInstr: 1e8}
	m.Phases = &obs.PhaseInfo{K: 7, Silhouette: 0.61}
	m.Sampling = &obs.SamplingInfo{Method: "simprof", N: 20, Confidence: 0.997,
		EstCPI: 1.2345, SE: 0.0123, CILo: 1.2, CIHi: 1.27, SEInflation: 1}
	r := FromManifest(m)
	r.Note = "profile wc_spark n=20"
	r.Time = "t"
	return r
}

// benchStore returns the bytes of a store holding n benchRecords.
func benchStore(b *testing.B, n int) []byte {
	var data []byte
	for i := 1; i <= n; i++ {
		r := benchRecord()
		r.Seq = i
		line, err := json.Marshal(r)
		if err != nil {
			b.Fatal(err)
		}
		data = append(append(data, line...), '\n')
	}
	return data
}

// BenchmarkAppend times one Append to a store holding 1000
// simprofd-shaped profile records on a handle that has not scanned it:
// the full read that finds the next seq dominates. The store is reset
// before each append (so the handle rescans every time), and the
// handle is not durable, so neither growth nor fsync masks the read.
func BenchmarkAppend(b *testing.B) {
	seed := benchStore(b, 1000)
	path := filepath.Join(b.TempDir(), "history.jsonl")
	st := Open(path)
	b.SetBytes(int64(len(seed)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.WriteFile(path, seed, 0o644); err != nil {
			b.Fatal(err)
		}
		r := benchRecord()
		b.StartTimer()
		if _, err := st.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendWarm times the steady-state Append of a long-lived
// handle (simprofd's): one handle on a store that starts at 2000
// profile records and grows by one per op. The handle validated the
// store on its first append, outside the timer, so each op reads no
// old bytes. Not durable, like BenchmarkAppend, so the two differ only
// in the read.
func BenchmarkAppendWarm(b *testing.B) {
	path := filepath.Join(b.TempDir(), "history.jsonl")
	if err := os.WriteFile(path, benchStore(b, 2000), 0o644); err != nil {
		b.Fatal(err)
	}
	st := Open(path)
	if _, err := st.Append(benchRecord()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := benchRecord()
		b.StartTimer()
		if _, err := st.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}
