package faults

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// TestIOTornWrite: a torn write persists a strict prefix and returns
// the typed error; the same seed tears at the same point.
func TestIOTornWrite(t *testing.T) {
	cfg := Config{TornWrite: 1, Seed: 11}
	run := func() (int, error, []byte) {
		var buf bytes.Buffer
		w := NewIO(cfg).Writer(&buf)
		n, err := w.Write([]byte("hello world"))
		return n, err, buf.Bytes()
	}
	n1, err1, b1 := run()
	if !errors.Is(err1, ErrTornWrite) {
		t.Fatalf("err = %v, want ErrTornWrite", err1)
	}
	if n1 >= len("hello world") {
		t.Fatalf("torn write persisted %d of %d bytes — not a strict prefix", n1, len("hello world"))
	}
	if n1 != len(b1) || !bytes.HasPrefix([]byte("hello world"), b1) {
		t.Fatalf("persisted %q (n=%d) is not the reported prefix", b1, n1)
	}
	n2, _, b2 := run()
	if n1 != n2 || !bytes.Equal(b1, b2) {
		t.Fatalf("same seed tore differently: %d/%q vs %d/%q", n1, b1, n2, b2)
	}
}

// TestIOTornWriteDisabled: rate 0 passes everything through untouched.
func TestIOTornWriteDisabled(t *testing.T) {
	var buf bytes.Buffer
	w := NewIO(Config{Seed: 1}).Writer(&buf)
	n, err := w.Write([]byte("abc"))
	if n != 3 || err != nil || buf.String() != "abc" {
		t.Fatalf("clean write perturbed: n=%d err=%v buf=%q", n, err, buf.String())
	}
}

// TestIOPartialRead: the reader delivers a prefix and the typed error.
func TestIOPartialRead(t *testing.T) {
	cfg := Config{PartialRead: 1, Seed: 3}
	r := NewIO(cfg).Reader(strings.NewReader("payload"))
	p := make([]byte, 16)
	n, err := r.Read(p)
	if !errors.Is(err, ErrPartialRead) {
		t.Fatalf("err = %v, want ErrPartialRead", err)
	}
	if n >= len("payload") {
		t.Fatalf("partial read delivered %d bytes — not partial", n)
	}
}

// TestIOLatency: the latency channel delays every op via the injectable
// sleep, scaled around the configured mean.
func TestIOLatency(t *testing.T) {
	cfg := Config{IOLatencyMS: 10, Seed: 5}
	f := NewIO(cfg)
	var slept []time.Duration
	f.Sleep = func(d time.Duration) { slept = append(slept, d) }
	var buf bytes.Buffer
	if _, err := f.Writer(&buf).Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Reader(strings.NewReader("y")).Read(make([]byte, 1)); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want one per op", len(slept))
	}
	for _, d := range slept {
		if d < 5*time.Millisecond || d > 15*time.Millisecond {
			t.Fatalf("delay %v outside mean±50%%", d)
		}
	}
}

// TestIOSpecRoundTrip: a fault spec cannot name an I/O channel (Apply
// would ignore it), so each I/O key is an unknown-channel error, alone
// or beside trace keys; a Config that sets the channels directly
// validates them, enables NewIO and not Apply, and renders none of them.
func TestIOSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{"torn=0.5", "pread=0.25", "iolatms=20", "drop=0.1,torn=0.9,pread=0.9"} {
		_, err := ParseSpec(spec)
		if err == nil || !strings.Contains(err.Error(), "unknown fault channel") {
			t.Fatalf("ParseSpec(%q) = %v, want an unknown-channel error", spec, err)
		}
	}
	c := Config{TornWrite: 0.5, PartialRead: 0.25, IOLatencyMS: 20}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !c.IOEnabled() {
		t.Fatal("IOEnabled false with channels set")
	}
	if c.Enabled() {
		t.Fatal("I/O channels must not enable the trace-level Apply")
	}
	if got := c.String(); got != "none" {
		t.Fatalf("String() = %q, want none: no spec key sets an I/O channel", got)
	}
	if err := (Config{TornWrite: 1.5}).Validate(); err == nil {
		t.Fatal("torn=1.5 should fail validation")
	}
	if err := (Config{IOLatencyMS: 500}).Validate(); err != nil {
		t.Fatalf("iolatms is a duration, not a probability: %v", err)
	}
}

// TestIOApplyIgnoresIOChannels: Apply on an I/O-only config is the
// identity (plus clone).
func TestIOApplyIgnoresIOChannels(t *testing.T) {
	cfg := Config{TornWrite: 1, PartialRead: 1, IOLatencyMS: 5}
	tr := buildTrace(2, 10, 1)
	out, rep, err := Apply(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep != (Report{}) {
		t.Fatalf("I/O-only config injected trace faults: %+v", rep)
	}
	if len(out.Units) != len(tr.Units) {
		t.Fatal("trace mutated by I/O-only config")
	}
}
