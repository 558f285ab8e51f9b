// Command datagen materializes the synthetic inputs used by the
// benchmark suite (the role BigDataBench's data synthesizer plays in the
// paper):
//
//	datagen text  -size 64MB -vocab 600000 -out corpus.txt
//	datagen kv    -records 1000000 -out records.tsv
//	datagen graph -name google -scale 16 -out edges.txt
//	datagen tableII -scale 14 -dir inputs/
//	datagen trace -units 10000 -format bin -out run.bin
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"simprof/internal/cli"
	"simprof/internal/synth"
	"simprof/internal/trace"
	_ "simprof/internal/tracebin" // registers the "bin" trace format
)

func main() { os.Exit(run(os.Args[1:])) }

// run executes one datagen command and returns its exit code: 0 on
// success, 2 on a usage mistake, 1 when generating or writing failed.
func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "text":
		err = cmdText(args[1:])
	case "kv":
		err = cmdKV(args[1:])
	case "graph":
		err = cmdGraph(args[1:])
	case "tableII":
		err = cmdTableII(args[1:])
	case "trace":
		err = cmdTrace(args[1:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown command %q\n", args[0])
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		return cli.ExitCode(err)
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: datagen <text|kv|graph|tableII|trace> [flags]`)
}

// parseSize understands "64MB", "1GB", "4096".
func parseSize(s string) (int64, error) {
	mult := int64(1)
	upper := strings.ToUpper(strings.TrimSpace(s))
	switch {
	case strings.HasSuffix(upper, "GB"):
		mult, upper = 1<<30, strings.TrimSuffix(upper, "GB")
	case strings.HasSuffix(upper, "MB"):
		mult, upper = 1<<20, strings.TrimSuffix(upper, "MB")
	case strings.HasSuffix(upper, "KB"):
		mult, upper = 1<<10, strings.TrimSuffix(upper, "KB")
	}
	v, err := strconv.ParseInt(upper, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return v * mult, nil
}

func cmdText(args []string) error {
	fs := flag.NewFlagSet("datagen text", flag.ExitOnError)
	size := fs.String("size", "16MB", "corpus size")
	vocab := fs.Int("vocab", 600_000, "vocabulary size")
	zipf := fs.Float64("zipf", 1.1, "Zipf exponent")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "", "output file (default stdout)")
	fs.Parse(args)
	bytes, err := parseSize(*size)
	if err != nil {
		return err
	}
	spec := synth.TextSpec{Name: "text", SizeBytes: bytes, Vocab: *vocab, ZipfS: *zipf, AvgWordLen: 6, Seed: *seed}
	var n, words int64
	if err := writeOut(*out, func(w io.Writer) (err error) {
		n, words, err = spec.Generate(w)
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d bytes, %d words\n", n, words)
	return nil
}

func cmdKV(args []string) error {
	fs := flag.NewFlagSet("datagen kv", flag.ExitOnError)
	records := fs.Int64("records", 100_000, "number of records")
	keyBytes := fs.Int("key", 10, "key bytes")
	valBytes := fs.Int("val", 90, "value bytes")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "", "output file (default stdout)")
	fs.Parse(args)
	spec := synth.KVSpec{Name: "kv", Records: *records, KeyBytes: *keyBytes, ValBytes: *valBytes, Seed: *seed}
	var n int64
	if err := writeOut(*out, func(w io.Writer) (err error) {
		n, err = spec.Generate(w)
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d bytes\n", n)
	return nil
}

func cmdGraph(args []string) error {
	fs := flag.NewFlagSet("datagen graph", flag.ExitOnError)
	name := fs.String("name", "google", "Table II input name, or 'custom'")
	scale := fs.Int("scale", 14, "Kronecker scale (2^scale vertices)")
	edgeFactor := fs.Float64("edgefactor", 16, "edges per vertex (custom only)")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "", "output edge list (default stdout)")
	fs.Parse(args)

	var spec synth.KroneckerSpec
	if *name == "custom" {
		spec = synth.KroneckerSpec{
			Name: "custom", Scale: *scale, EdgeFactor: *edgeFactor,
			A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: *seed,
		}
	} else {
		found := false
		for _, in := range synth.TableII(*scale, *seed) {
			if in.Spec.Name == *name {
				spec, found = in.Spec, true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown graph %q (see 'datagen tableII')", *name)
		}
	}
	g, err := spec.Generate()
	if err != nil {
		return err
	}
	if err := writeOut(*out, func(w io.Writer) error { return writeEdges(w, g.Edges) }); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: %d vertices, %d edges, max out-degree %d, degree CoV %.2f\n",
		g.Name, g.N, len(g.Edges), g.MaxDeg, g.DegreeCoV())
	return nil
}

func cmdTableII(args []string) error {
	fs := flag.NewFlagSet("datagen tableII", flag.ExitOnError)
	scale := fs.Int("scale", 14, "Kronecker scale")
	seed := fs.Uint64("seed", 1, "random seed")
	dir := fs.String("dir", "", "write each input to <dir>/<name>.txt (default: list only)")
	fs.Parse(args)
	for _, in := range synth.TableII(*scale, *seed) {
		role := "reference"
		if in.Training {
			role = "training"
		}
		fmt.Printf("%-10s %-24s %s (2^%d vertices, %d edges)\n",
			in.Spec.Name, in.Kind, role, in.Spec.Scale, in.Spec.Edges())
		if *dir != "" {
			g, err := in.Spec.Generate()
			if err != nil {
				return err
			}
			path := filepath.Join(*dir, in.Spec.Name+".txt")
			if err := writeOut(path, func(w io.Writer) error { return writeEdges(w, g.Edges) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// cmdTrace materializes a synthetic phase-structured profiling trace in
// any registered trace format — the fixture generator for format
// conversions, decoder tests and large-scale ingest benchmarks.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("datagen trace", flag.ExitOnError)
	units := fs.Int("units", 10_000, "sampling units")
	methods := fs.Int("methods", 256, "interned method table size")
	phases := fs.Int("phases", 4, "planted phases")
	depth := fs.Int("depth", 8, "frames per snapshot")
	snaps := fs.Int("snapshots", 10, "snapshots per unit")
	seed := fs.Uint64("seed", 1, "random seed")
	format := fs.String("format", "bin", fmt.Sprintf("output format %v", trace.FormatNames()))
	out := fs.String("out", "", "output file (default stdout)")
	fs.Parse(args)
	if !slices.Contains(trace.FormatNames(), *format) {
		return cli.UsageErr(fs, "unknown -format %q (have: %s)", *format, strings.Join(trace.FormatNames(), " "))
	}
	spec := synth.DefaultTrace(*units, *seed)
	spec.Methods = *methods
	spec.Phases = *phases
	spec.Depth = *depth
	spec.Snapshots = *snaps
	tr, err := spec.Generate()
	if err != nil {
		return err
	}
	if err := writeOut(*out, func(w io.Writer) error { return tr.Encode(w, *format) }); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d units, %d methods, %d planted phases (%s)\n",
		len(tr.Units), len(tr.Methods), *phases, *format)
	return nil
}

// writeOut runs write on the destination file, or stdout when path is
// empty, through a buffer, then flushes the buffer and closes the file.
// The first error of the three is returned, so a failed write fails the
// command.
func writeOut(path string, write func(w io.Writer) error) error {
	f := os.Stdout
	if path != "" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
	}
	w := bufio.NewWriter(f)
	err := write(w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if path != "" {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// writeEdges writes one tab-separated edge per line.
func writeEdges(w io.Writer, edges [][2]int32) error {
	for _, e := range edges {
		if _, err := fmt.Fprintf(w, "%d\t%d\n", e[0], e[1]); err != nil {
			return err
		}
	}
	return nil
}
