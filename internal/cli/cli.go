// Package cli is the usage and exit-code contract shared by the
// simprof and simprofd binaries: subcommand flag sets that report
// parse failures as typed usage errors, a uniform "usage: <tool>
// <cmd>: reason" message, and one mapping from a command's error to
// the process exit code.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"simprof/internal/resilience"
)

// ErrHelp marks a -h/-help parse: usage has been printed, exit clean.
var ErrHelp = errors.New("help requested")

// usageError marks a flag-parse or flag-validation failure. It is its
// own type (not a resilience class) because POSIX tools reserve exit
// code 2 for usage mistakes, and the resilience taxonomy starts at 3.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

// ExitCode maps a command's error to the uniform exit-code contract:
//
//	0 success / help
//	1 internal failure
//	2 usage (bad flags)
//	3 bad input          4 timeout
//	5 overload           6 unavailable
//	7 canceled
//
// Codes 3-7 come straight from the resilience taxonomy, so the CLI and
// simprofd classify identically — a script sees the same class whether
// it shells out or curls.
func ExitCode(err error) int {
	var ue *usageError
	switch {
	case err == nil, errors.Is(err, ErrHelp):
		return 0
	case errors.As(err, &ue):
		return 2
	}
	return resilience.Classify(err).ExitCode()
}

// NewFlagSet builds the flag set of one subcommand. cmd is the full
// command path including the tool ("simprof phases", "simprofd
// serve"); usage messages quote it verbatim. Parse errors go through
// Parse and UsageErr instead of exiting or printing on their own.
func NewFlagSet(cmd string) *flag.FlagSet {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// Parse parses args, turning flag errors into usage errors and -h into
// a printed usage plus ErrHelp.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil {
		return nil
	}
	if errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "usage: %s [flags]\n\nflags:\n", fs.Name())
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		return ErrHelp
	}
	return UsageErr(fs, "%v", err)
}

// UsageErr produces the uniform flag-validation error: every bad flag
// value on every subcommand fails with "usage: <tool> <cmd>: reason"
// and exit code 2.
func UsageErr(fs *flag.FlagSet, format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf("usage: %s: %s (run '%s -h' for flags)",
		fs.Name(), fmt.Sprintf(format, args...), fs.Name())}
}
