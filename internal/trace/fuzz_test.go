package trace

import (
	"bytes"
	"testing"
)

// fuzzSeedCorpus returns encodings of a valid trace plus hand-broken
// variants, so the fuzzers start from inputs that reach deep into the
// decoder instead of failing at the first byte.
func fuzzSeedCorpus(f *testing.F) {
	f.Helper()
	encode := func(tr *Trace) []byte {
		var buf bytes.Buffer
		if err := tr.EncodeGob(&buf); err != nil {
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
	// Spans that do not fit the columns: Snapshots, At or Stages would
	// read out of range if Validate let them through.
	for _, tr := range brokenSpanTraces() {
		f.Add(encode(tr))
	}
}

// brokenSpanTraces returns valid-looking traces whose unit 1 has spans
// that do not fit the columns: stack offsets that decrease inside its
// snapshot span, a last offset past Frames, a snapshot span past
// FrameOff, an inverted snapshot span, an inverted stage span and a
// stage span past StageIDs. Unit 1's snapshots are stacks 2 and 3.
func brokenSpanTraces() []*Trace {
	var out []*Trace
	for _, break_ := range []func(tr *Trace){
		func(tr *Trace) { tr.FrameOff[3] = 5 },
		func(tr *Trace) { tr.FrameOff[4] = 99 },
		func(tr *Trace) { tr.Units[1].Snapshots.Hi = 40 },
		func(tr *Trace) { tr.Units[1].Snapshots = Span{Lo: 4, Hi: 2} },
		func(tr *Trace) { tr.Units[1].Stages = Span{Lo: 1, Hi: 0} },
		func(tr *Trace) { tr.Units[1].Stages = Span{Lo: 0, Hi: 3} },
	} {
		tr := threadedTrace()
		break_(tr)
		out = append(out, tr)
	}
	return out
}

// readAll walks every snapshot and stage list of a trace through
// Snapshots, At and Stages and counts its methods: on a trace that
// passed Validate none may panic.
func readAll(tr *Trace) {
	for i := range tr.Units {
		s := tr.Snapshots(i)
		for j := 0; j < s.Len(); j++ {
			_ = s.At(j).Leaf()
		}
		_ = tr.Stages(i)
	}
	tr.CountMethods()
}

// FuzzDecodeGob asserts the gob decode path never panics: any input
// either yields a trace that passes Validate or returns an error.
func FuzzDecodeGob(f *testing.F) {
	fuzzSeedCorpus(f)
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
