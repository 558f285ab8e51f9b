package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simprof/internal/cli"
	"simprof/internal/resilience"
)

// TestExitCodeFor: the full exit-code contract, including errors
// buried under %w wrapping — a script must be able to branch on $?
// no matter how deep the failure happened.
func TestExitCodeFor(t *testing.T) {
	fs := cli.NewFlagSet("simprof phases")
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, 0},
		{"help", cli.ErrHelp, 0},
		{"help wrapped", fmt.Errorf("parse: %w", cli.ErrHelp), 0},
		{"usage", cli.UsageErr(fs, "-trace is required"), 2},
		{"usage wrapped", fmt.Errorf("phases: %w", cli.UsageErr(fs, "bad")), 2},
		{"bad input", resilience.BadInput(errors.New("not a trace")), 3},
		{"bad input wrapped", fmt.Errorf("load: %w", resilience.BadInput(errors.New("x"))), 3},
		{"timeout", fmt.Errorf("profile: %w", context.DeadlineExceeded), 4},
		{"overload", fmt.Errorf("submit: %w", resilience.ErrOverload), 5},
		{"unavailable", resilience.Unavailable(errors.New("connection refused")), 6},
		{"draining", fmt.Errorf("refused: %w", resilience.ErrDraining), 6},
		{"canceled", fmt.Errorf("run: %w", context.Canceled), 7},
		{"internal", errors.New("boom"), 1},
		{"internal wrapped", fmt.Errorf("outer: %w", os.ErrPermission), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := cli.ExitCode(c.err); got != c.want {
				t.Fatalf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
			}
		})
	}
}

// TestUsageErrMessage: the shared usage error keeps the message
// contract the subcommand tests rely on.
func TestUsageErrMessage(t *testing.T) {
	err := cli.UsageErr(cli.NewFlagSet("simprof sample"), "-n must be positive, got %d", -1)
	want := "usage: simprof sample: -n must be positive, got -1 (run 'simprof sample -h' for flags)"
	if err.Error() != want {
		t.Fatalf("message %q, want %q", err.Error(), want)
	}
	if got := cli.ExitCode(err); got != 2 {
		t.Fatalf("usage error exit code %d, want 2", got)
	}
}

// TestLoadTraceBadInputClass: a file that is not a trace classifies as
// bad input (exit 3), and a missing file stays internal (exit 1) — the
// decode wrapper must not swallow I/O errors into the wrong class.
func TestLoadTraceBadInputClass(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.gob")
	if err := os.WriteFile(path, []byte("this is not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadTrace(path)
	if err == nil {
		t.Fatal("garbage file decoded")
	}
	if got := cli.ExitCode(err); got != 3 {
		t.Fatalf("garbage trace exit code %d, want 3 (bad input); err: %v", got, err)
	}
	if !strings.Contains(err.Error(), "load trace") {
		t.Fatalf("error lost its context: %v", err)
	}

	_, err = loadTrace(filepath.Join(t.TempDir(), "absent.gob"))
	if err == nil {
		t.Fatal("missing file loaded")
	}
	if got := cli.ExitCode(err); got != 1 {
		t.Fatalf("missing trace exit code %d, want 1 (internal); err: %v", got, err)
	}
}
