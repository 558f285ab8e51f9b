package trace

import (
	"bytes"
	"testing"
)

// fuzzSeedCorpus returns encodings of a valid trace plus hand-broken
// variants, so the fuzzers start from inputs that reach deep into the
// decoder instead of failing at the first byte.
func fuzzSeedCorpus(f *testing.F, json bool) {
	f.Helper()
	encode := func(tr *Trace) []byte {
		var buf bytes.Buffer
		var err error
		if json {
			err = tr.EncodeJSON(&buf)
		} else {
			err = tr.EncodeGob(&buf)
		}
		if err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	good := encode(threadedTrace())
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	broken := threadedTrace()
	broken.Units[0].ID = 7
	f.Add(encode(broken))
	flipped := append([]byte(nil), good...)
	for i := 10; i < len(flipped); i += 97 {
		flipped[i] ^= 0x40
	}
	f.Add(flipped)
	// Snapshot offsets that do not fit their frames: At would read out of
	// range if Validate let them through.
	for _, tr := range brokenOffsetTraces() {
		f.Add(encode(tr))
	}
}

// brokenOffsetTraces returns valid-looking traces whose unit 1 carries
// snapshot offsets that do not fit its frames: one non-monotone, one
// ending short of len(Frames), one ending past it.
func brokenOffsetTraces() []*Trace {
	var out []*Trace
	for _, off := range [][]uint32{{0, 2, 1}, {0, 1, 1}, {0, 1, 3}} {
		tr := threadedTrace()
		s := &tr.Units[1].Snapshots
		s.Off = off
		out = append(out, tr)
	}
	return out
}

// readAll walks every snapshot of a trace through At and counts its
// methods: on a trace that passed Validate neither may panic.
func readAll(tr *Trace) {
	for i := range tr.Units {
		s := tr.Units[i].Snapshots
		for j := 0; j < s.Len(); j++ {
			_ = s.At(j).Leaf()
		}
	}
	tr.CountMethods()
}

// FuzzDecodeGob asserts the gob decode path never panics: any input
// either yields a trace that passes Validate or returns an error.
func FuzzDecodeGob(f *testing.F) {
	fuzzSeedCorpus(f, false)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeGob(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("DecodeGob returned an invalid trace: %v", err)
		}
		// Exercise the paths that used to panic on malformed traces.
		if _, err := tr.Table(); err != nil {
			t.Fatalf("valid trace but Table failed: %v", err)
		}
		tr.OracleCPI()
		tr.CPIs()
		tr.Summarize()
		readAll(tr)
	})
}

// FuzzDecodeJSON is the same contract for the JSON decoder.
func FuzzDecodeJSON(f *testing.F) {
	fuzzSeedCorpus(f, true)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("DecodeJSON returned an invalid trace: %v", err)
		}
		if _, err := tr.Table(); err != nil {
			t.Fatalf("valid trace but Table failed: %v", err)
		}
		tr.OracleCPI()
		tr.CPIs()
		tr.Summarize()
		readAll(tr)
	})
}
