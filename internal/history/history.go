// Package history is SimProf's cross-run observability store: an
// append-only JSONL file of run records, each holding the telemetry
// manifest of one pipeline run and/or one parsed benchmark snapshot,
// keyed by the binary's VCS stamp plus the workload and seeds that
// ran. On top of the store sit the two consumers that connect runs
// over time: Diff (stage-level span deltas, metric deltas and
// estimate/SE/CI drift between any two runs) and Gate (a noise-aware
// perf-regression check over bench snapshots).
//
// The store format is one JSON object per line. Appends never rewrite
// existing bytes, so a crashed writer can at worst leave a truncated
// final line — readers skip it and report how many lines they skipped
// instead of failing the whole store.
//
// An append costs O(new bytes), not O(store): a Store handle reads only
// what was appended since the prefix it last validated (Store.Append).
// Durable appends fsync before acknowledging and are never retried,
// because after a failed fsync Linux may drop the dirty pages and
// report the next fsync clean — a retry could acknowledge a record
// that is not on disk.
package history

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"simprof/internal/obs"
)

// Record is one line of the history store.
type Record struct {
	// Seq is the 1-based position in the store, assigned at append time.
	Seq int `json:"seq"`
	// Time is the wall-clock append time, RFC3339 UTC.
	Time string `json:"time,omitempty"`
	// Key groups comparable runs: VCS revision + tool + workload + seed.
	Key string `json:"key"`
	// Revision/Modified mirror the manifest's build stamp so `history
	// list` can render provenance without unpacking the manifest.
	Revision string `json:"revision,omitempty"`
	Modified bool   `json:"modified,omitempty"`
	Tool     string `json:"tool,omitempty"`
	Note     string `json:"note,omitempty"`

	Manifest *obs.Manifest `json:"manifest,omitempty"`
	Bench    []BenchResult `json:"bench,omitempty"`
}

// Key derives the record grouping key from a manifest: the VCS
// revision (short), the tool, the workload identity and its seed.
// Sections a manifest does not carry contribute "-" so keys stay
// comparable across tools.
func Key(m *obs.Manifest) string {
	if m == nil {
		return "-/-/-/-"
	}
	rev := m.Build.Revision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev == "" {
		rev = "-"
	}
	tool := m.Tool
	if tool == "" {
		tool = "-"
	}
	wl, seed := "-", "-"
	if w := m.Workload; w != nil {
		wl = w.Benchmark + "_" + w.Framework
		seed = fmt.Sprintf("seed=%d", w.Seed)
	}
	return strings.Join([]string{rev, tool, wl, seed}, "/")
}

// FromManifest builds a record shell for a manifest: key, build
// provenance and the manifest itself. The caller appends it (which
// assigns Seq and Time) and may attach Bench results first.
func FromManifest(m *obs.Manifest) *Record {
	r := &Record{Key: Key(m), Manifest: m}
	if m != nil {
		r.Revision = m.Build.Revision
		r.Modified = m.Build.Modified
		r.Tool = m.Tool
	}
	return r
}

// Store is a handle on a JSONL history file. The zero value is not
// usable; construct with Open (or OpenDurable for fsync-on-commit
// appends). Opening does not touch the filesystem — a store that was
// never appended to reads as empty.
type Store struct {
	path    string
	durable bool // Append fsyncs before acknowledging

	// mu serializes Append and RecoverTail on this handle and guards
	// Append's validated prefix: the first valid bytes of file hold
	// only committed records (and blank lines), whose largest seq is
	// maxSeq. file is nil until the handle's first append scans.
	mu     sync.Mutex
	valid  int64
	maxSeq int
	file   os.FileInfo
}

// Open returns a handle on the store at path.
func Open(path string) *Store { return &Store{path: path} }

// Path returns the store's file path.
func (s *Store) Path() string { return s.path }

// Records reads every parseable record in append order and the number
// of corrupt/truncated lines skipped (non-zero only after a torn write
// or manual editing; the data that is there still loads).
func (s *Store) Records() (recs []*Record, skipped int, err error) {
	f, err := os.Open(s.path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("history: open %s: %w", s.path, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r Record
		if json.Unmarshal([]byte(line), &r) != nil {
			skipped++
			continue
		}
		recs = append(recs, &r)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("history: read %s: %w", s.path, err)
	}
	return recs, skipped, nil
}

// Get returns the record with the given Seq, or the last record when
// seq is 0. Negative seq counts from the end (-1 = last, -2 = one
// before it).
func (s *Store) Get(seq int) (*Record, error) {
	recs, _, err := s.Records()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("history: store %s is empty", s.path)
	}
	if seq == 0 {
		seq = -1
	}
	if seq < 0 {
		i := len(recs) + seq
		if i < 0 {
			return nil, fmt.Errorf("history: store has %d records, no record %d from the end", len(recs), -seq)
		}
		return recs[i], nil
	}
	for _, r := range recs {
		if r.Seq == seq {
			return r, nil
		}
	}
	return nil, fmt.Errorf("history: no record with seq %d (store has %d records)", seq, len(recs))
}

// Append assigns the record's Seq (and Time, if unset) and appends it
// as one JSON line. The record is returned for convenience. A torn
// tail left by an earlier failed write is cut off first (the rule
// RecoverTail applies), so the new line starts on a line boundary
// instead of being glued onto the fragment.
//
// An append costs O(new bytes), not O(store): the handle remembers how
// far it has validated the file and the largest seq in that prefix, so
// only bytes appended since (normally none; other handles' appends
// otherwise) are read and parsed. The whole file is rescanned on the
// handle's first append, when the file shrank below the validated
// offset, and when the path now names a different file. A file
// rewritten in place to at least its validated length is not detected:
// reset a store by replacing or truncating it, or use a new handle.
//
// Append is safe for concurrent use on one handle. Appends through
// different handles on one path are not serialized against each other.
// Callers must not retry a failed durable append (see the package doc).
func (s *Store) Append(r *Record) (*Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("history: append %s: %w", s.path, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("history: stat %s: %w", s.path, err)
	}
	size := fi.Size()
	from, maxSeq := s.valid, s.maxSeq
	if s.file == nil || size < from || !os.SameFile(s.file, fi) {
		from, maxSeq = 0, 0
	}
	suffix := make([]byte, size-from)
	if _, err := f.ReadAt(suffix, from); err != nil {
		return nil, fmt.Errorf("history: read %s: %w", s.path, err)
	}
	good := from + validPrefix(suffix, func(line []byte) {
		var head struct {
			Seq int `json:"seq"`
		}
		if json.Unmarshal(line, &head) == nil && head.Seq > maxSeq {
			maxSeq = head.Seq
		}
	})
	// The prefix is validated whatever happens to the write below.
	s.valid, s.maxSeq, s.file = good, maxSeq, fi

	r.Seq = maxSeq + 1
	if r.Time == "" {
		r.Time = time.Now().UTC().Format(time.RFC3339)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("history: marshal record: %w", err)
	}
	line = append(line, '\n')
	if torn := size - good; torn > 0 {
		if err := f.Truncate(good); err != nil {
			return nil, fmt.Errorf("history: truncate %s to %d: %w", s.path, good, err)
		}
		obsTailRecovered.Inc()
		obsTailBytes.Add(torn)
	}
	if _, err := f.Write(line); err != nil {
		return nil, fmt.Errorf("history: append %s: %w", s.path, err)
	}
	if s.durable {
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("history: sync %s: %w", s.path, err)
		}
		obsFsyncs.Inc()
	}
	// O_APPEND leaves the offset at the end of this write. Anywhere but
	// right after the validated prefix means another handle appended in
	// between; the next append then reads both lines from good.
	if end, err := f.Seek(0, io.SeekCurrent); err == nil && end == good+int64(len(line)) {
		s.valid, s.maxSeq = end, r.Seq
	}
	return r, f.Close()
}
