package cli

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"simprof/internal/resilience"
)

// TestExitCode pins the contract both binaries share: the usage
// message names the tool and subcommand, and every error class maps to
// its exit code 0-7, bare or under %w wrapping.
func TestExitCode(t *testing.T) {
	for _, cmd := range []string{"simprof phases", "simprofd serve"} {
		fs := NewFlagSet(cmd)

		usage := UsageErr(fs, "-n must be positive, got %d", -1)
		want := fmt.Sprintf("usage: %s: -n must be positive, got -1 (run '%s -h' for flags)", cmd, cmd)
		if usage.Error() != want {
			t.Fatalf("%s: message %q, want %q", cmd, usage.Error(), want)
		}
		parseErr := Parse(fs, []string{"-wat"})
		if !strings.HasPrefix(fmt.Sprint(parseErr), "usage: "+cmd+": flag provided but not defined: -wat") {
			t.Fatalf("%s: unknown flag gave %v", cmd, parseErr)
		}

		cases := []struct {
			name string
			err  error
			want int
		}{
			{"nil", nil, 0},
			{"help", ErrHelp, 0},
			{"help wrapped", fmt.Errorf("parse: %w", ErrHelp), 0},
			{"internal", errors.New("boom"), 1},
			{"internal wrapped", fmt.Errorf("outer: %w", os.ErrPermission), 1},
			{"usage", usage, 2},
			{"usage wrapped", fmt.Errorf("run: %w", usage), 2},
			{"usage from parse", parseErr, 2},
			{"bad input", fmt.Errorf("load: %w", resilience.BadInput(errors.New("x"))), 3},
			{"timeout", fmt.Errorf("profile: %w", context.DeadlineExceeded), 4},
			{"overload", fmt.Errorf("submit: %w", resilience.ErrOverload), 5},
			{"unavailable", resilience.Unavailable(errors.New("connection refused")), 6},
			{"draining", fmt.Errorf("refused: %w", resilience.ErrDraining), 6},
			{"canceled", fmt.Errorf("run: %w", context.Canceled), 7},
		}
		for _, c := range cases {
			t.Run(cmd+"/"+c.name, func(t *testing.T) {
				if got := ExitCode(c.err); got != c.want {
					t.Fatalf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
				}
			})
		}
	}
}
