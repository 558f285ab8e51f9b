package history

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"simprof/internal/obs"
)

var (
	obsFsyncs = obs.NewCounter("history.fsyncs",
		"appends flushed to stable storage before acknowledging")
	obsTailRecovered = obs.NewCounter("history.tail_recoveries",
		"stores opened with a torn tail truncated away")
	obsTailBytes = obs.NewCounter("history.tail_bytes_dropped",
		"bytes of torn/corrupt tail removed by recovery")
)

// OpenDurable returns a handle on the store at path whose appends are
// fsynced before they are acknowledged: once Append returns, the record
// survives a process kill or power loss. Plain Open leaves the flush to
// the OS — right for CLI runs where the shell outlives the write, wrong
// for a service that acknowledges uploads. The file format is
// identical; the two handles can share a store.
func OpenDurable(path string) *Store { return &Store{path: path, durable: true} }

// RecoverTail truncates away a torn tail left by a writer that died
// mid-append: trailing bytes with no newline, and any trailing run of
// newline-terminated lines that do not parse as JSON. Interior records
// are never touched — O_APPEND writes mean a crash can only damage the
// end of the file. It returns the number of bytes removed (0 when the
// store is clean or absent). The truncation is flushed before
// returning, so a recovery immediately followed by a crash cannot
// resurrect the torn tail. It does not prime Append's validated
// prefix: the first append still scans the file itself.
func (s *Store) RecoverTail() (dropped int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(s.path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("history: recover %s: %w", s.path, err)
	}
	good := validPrefix(data, nil)
	if good == int64(len(data)) {
		return 0, nil
	}
	f, err := os.OpenFile(s.path, os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("history: recover %s: %w", s.path, err)
	}
	defer f.Close()
	if err := f.Truncate(good); err != nil {
		return 0, fmt.Errorf("history: truncate %s to %d: %w", s.path, good, err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("history: sync %s: %w", s.path, err)
	}
	dropped = int64(len(data)) - good
	obsTailRecovered.Inc()
	obsTailBytes.Add(dropped)
	return dropped, f.Close()
}

// validPrefix returns the length of the longest prefix of data that
// ends after a committed record: every byte past it belongs to the torn
// tail. A line counts as committed when it is newline-terminated and
// either blank or valid JSON (json.Marshal never emits raw newlines, so
// a committed record is always exactly one line). visit, when non-nil,
// receives every committed non-blank line in order.
func validPrefix(data []byte, visit func(line []byte)) int64 {
	var good int64
	for off := int64(0); off < int64(len(data)); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated tail
		}
		line := bytes.TrimSpace(data[off : off+int64(nl)])
		end := off + int64(nl) + 1
		if len(line) == 0 || json.Valid(line) {
			good = end
			if visit != nil && len(line) > 0 {
				visit(line)
			}
		}
		off = end
	}
	return good
}
