package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFailureExits1: a destination that refuses the bytes fails the
// command, whether the error surfaces while writing or only when the
// buffered tail is flushed at the end (a few records fit the buffer).
func TestWriteFailureExits1(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, args := range [][]string{
		{"kv", "-records", "10", "-out", "/dev/full"},
		{"trace", "-units", "5", "-out", "/dev/full"},
		{"text", "-size", "1KB", "-out", "/dev/full"},
		{"graph", "-name", "custom", "-scale", "4", "-out", "/dev/full"},
	} {
		if code := run(args); code != 1 {
			t.Errorf("datagen %v: exit %d, want 1", args, code)
		}
	}
}

// TestTraceBadFormatIsUsage: an unknown -format is a usage error (exit
// 2) found before anything is generated, so no output file is created.
func TestTraceBadFormatIsUsage(t *testing.T) {
	out := filepath.Join(t.TempDir(), "f")
	if code := run([]string{"trace", "-units", "50", "-format", "xml", "-out", out}); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("bad -format left %s behind (stat: %v)", out, err)
	}
	if code := run([]string{"trace", "-units", "50", "-format", "gob", "-out", out}); code != 0 {
		t.Fatalf("-format gob: exit %d, want 0", code)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("-format gob wrote nothing (stat: %v)", err)
	}
}
