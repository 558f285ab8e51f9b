package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"

	"simprof/internal/experiments"
	"simprof/internal/history"
	"simprof/internal/obs"
	"simprof/internal/stats"
	"simprof/internal/synth"
	"simprof/internal/tracebin"
)

// Seed streams: every input of a run is derived from the workload seed
// through one of these, so the same seed gives the same inputs.
const (
	streamTrace1M   = 1
	streamSetup     = 200
	streamHistory   = 300
	streamProfile   = 1000
	streamHotKey    = 5000
	streamMissSlot  = 7000
	streamHotPick   = 8000
	streamUniqueKey = 9000
)

// seedFor derives the seed of one input from the workload seed.
func seedFor(seed uint64, stream, i int) uint64 {
	return stats.SplitSeed(seed, uint64(stream)+uint64(i)<<20)
}

// input is one encoded trace the program under test receives, with what
// the benchmark knows about it from generating it.
type input struct {
	Name   string
	Data   []byte
	Units  int
	Oracle float64 // the trace's true mean CPI
}

// millionInput generates the synthetic trace of offline-1m and encodes it
// as SPTB. The trace itself is dropped and its memory returned to the
// OS, so the run's peak RSS reflects profiling, not generation.
func millionInput(seed uint64, units int) (input, error) {
	spec := synth.DefaultTrace(units, seedFor(seed, streamTrace1M, 0))
	spec.Depth, spec.Snapshots = 5, 5
	tr, err := spec.Generate()
	if err != nil {
		return input{}, err
	}
	data, err := tracebin.Marshal(tr)
	if err != nil {
		return input{}, err
	}
	in := input{Name: "synth_1m", Data: data, Units: len(tr.Units), Oracle: tr.OracleCPI()}
	tr = nil
	runtime.GC()
	debug.FreeOSMemory()
	return in, nil
}

// tableIInputs profiles the 12 Table I workloads with the experiment
// suite's default configuration, seed included, and encodes each trace
// in format ("bin" or "gob"). The traces are the same for every workload
// seed: they are the suite the paper's tables are computed on, and a
// fixed suite keeps the seed-to-seed spread of the quality metrics small
// enough for tight bounds. The workload seed varies everything else.
func tableIInputs(format string) ([]input, error) {
	s := experiments.NewSuite(experiments.Default())
	var out []input
	for _, k := range s.Workloads() {
		tr, err := s.Trace(k)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf, format); err != nil {
			return nil, fmt.Errorf("encode %s: %w", k, err)
		}
		out = append(out, input{Name: k, Data: buf.Bytes(), Units: len(tr.Units), Oracle: tr.OracleCPI()})
	}
	return out, nil
}

// preseedHistory writes records manifest-shaped history records to path,
// shaped like the ones simprofd appends per profile, so the service
// starts with a store of realistic size.
func preseedHistory(path string, records int, inputs []input, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := 0; i < records; i++ {
		in := inputs[i%len(inputs)]
		s := seedFor(seed, streamHistory, i)
		m := obs.NewManifest("simprofd profile", nil)
		m.Workload = &obs.WorkloadInfo{Benchmark: in.Name, Framework: "preseed", Seed: s, Units: in.Units, UnitInstr: 100_000_000}
		m.Phases = &obs.PhaseInfo{K: 3 + i%5, Silhouette: 0.5 + float64(i%40)/100}
		est := in.Oracle * (1 + float64(int(s%200)-100)/5000)
		m.Sampling = &obs.SamplingInfo{Method: "SimProf", N: 20, Confidence: 0.997,
			EstCPI: est, SE: est / 50, CILo: est * 0.94, CIHi: est * 1.06, SEInflation: 1}
		rec := history.FromManifest(m)
		rec.Seq = i + 1
		rec.Time = "2026-01-01T00:00:00Z"
		rec.Note = fmt.Sprintf("profile %s_preseed n=20", in.Name)
		line, err := json.Marshal(rec)
		if err != nil {
			f.Close()
			return err
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
