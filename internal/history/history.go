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
package history

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
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
// instead of being glued onto the fragment. Appends to one store must
// not run concurrently.
func (s *Store) Append(r *Record) (*Record, error) {
	data, err := os.ReadFile(s.path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("history: read %s: %w", s.path, err)
	}
	maxSeq := 0
	good := validPrefix(data, func(line []byte) {
		var head struct {
			Seq int `json:"seq"`
		}
		if json.Unmarshal(line, &head) == nil && head.Seq > maxSeq {
			maxSeq = head.Seq
		}
	})
	r.Seq = maxSeq + 1
	if r.Time == "" {
		r.Time = time.Now().UTC().Format(time.RFC3339)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("history: marshal record: %w", err)
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("history: append %s: %w", s.path, err)
	}
	defer f.Close()
	if torn := int64(len(data)) - good; torn > 0 {
		if err := f.Truncate(good); err != nil {
			return nil, fmt.Errorf("history: truncate %s to %d: %w", s.path, good, err)
		}
		obsTailRecovered.Inc()
		obsTailBytes.Add(torn)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		return nil, fmt.Errorf("history: append %s: %w", s.path, err)
	}
	if s.durable {
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("history: sync %s: %w", s.path, err)
		}
		obsFsyncs.Inc()
	}
	return r, f.Close()
}
