package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// ManifestVersion is bumped whenever the manifest schema changes shape.
// Version history:
//
//	1  spans + metrics + typed pipeline sections
//	2  adds span GIDs and concurrent timer samples (trace export)
//	3  adds the request section (retained request traces); the
//	   section is gone since request tracing was removed, and a v3
//	   manifest that carries one still decodes with it ignored
const ManifestVersion = 3

// Manifest is the structured provenance record of one pipeline run:
// what ran, with which seeds and knobs, what the pipeline decided
// (k, silhouette, allocation), what it estimated (CPI, SE, CI), and
// the telemetry it produced (metric snapshot, span tree). It is plain
// data with no pipeline imports, so the cmd layer fills the typed
// sections from the packages that own them.
type Manifest struct {
	Version int       `json:"version"`
	Tool    string    `json:"tool"` // e.g. "simprof compare"
	Args    []string  `json:"args,omitempty"`
	Build   BuildInfo `json:"build"`

	Workload *WorkloadInfo `json:"workload,omitempty"`
	Faults   *FaultInfo    `json:"faults,omitempty"`
	Phases   *PhaseInfo    `json:"phases,omitempty"`
	Sampling *SamplingInfo `json:"sampling,omitempty"`

	Metrics []Metric `json:"metrics,omitempty"`
	Spans   *Span    `json:"spans,omitempty"`
	// TimerSamples are the concurrent intervals captured inside parallel
	// loops (sorted by start); TimerSamplesDropped counts overflow past
	// the per-run buffer bound.
	TimerSamples        []TimerSample `json:"timer_samples,omitempty"`
	TimerSamplesDropped int64         `json:"timer_samples_dropped,omitempty"`
}

// BuildInfo identifies the binary that produced a manifest.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	// Revision is the VCS revision baked in by the Go toolchain
	// (git describe equivalent), "devel" when built without VCS stamps.
	Revision string `json:"revision"`
	Modified bool   `json:"modified,omitempty"` // dirty working tree
}

// WorkloadInfo records what was profiled.
type WorkloadInfo struct {
	Benchmark string  `json:"benchmark"`
	Framework string  `json:"framework"`
	Input     string  `json:"input,omitempty"`
	Seed      uint64  `json:"seed"`
	Workers   int     `json:"workers"`
	Units     int     `json:"units"`
	UnitInstr uint64  `json:"unit_instr"`
	OracleCPI float64 `json:"oracle_cpi"`
	// DegradedFraction is the share of units with any effective quality
	// flag; Quality is the human-readable tally.
	DegradedFraction float64 `json:"degraded_fraction"`
	Quality          string  `json:"quality,omitempty"`
}

// FaultInfo records an injected fault schedule and its per-channel
// injection counts.
type FaultInfo struct {
	Spec            string `json:"spec"`
	Seed            uint64 `json:"seed"`
	CountersDropped int    `json:"counters_dropped"`
	Multiplexed     int    `json:"multiplexed"`
	SnapshotsLost   int    `json:"snapshots_lost"`
	CrashedThreads  int    `json:"crashed_threads"`
	UnitsLost       int    `json:"units_lost"`
	Duplicated      int    `json:"duplicated"`
	Displaced       int    `json:"displaced"`
	Repair          string `json:"repair,omitempty"` // repair report, if Repair ran
}

// PhaseInfo records the phase-formation outcome.
type PhaseInfo struct {
	K                int       `json:"k"`
	Silhouette       float64   `json:"silhouette"`
	KScores          []float64 `json:"k_scores,omitempty"` // silhouette per swept k (index 0 ↔ k=1)
	DegradedFraction float64   `json:"degraded_fraction"`
}

// SamplingInfo records a sampling run: the estimate, its uncertainty
// and the per-stratum allocation that produced it.
type SamplingInfo struct {
	Method      string        `json:"method"`
	N           int           `json:"n"` // requested sample size
	Confidence  float64       `json:"confidence"`
	EstCPI      float64       `json:"est_cpi"`
	SE          float64       `json:"se"`
	CILo        float64       `json:"ci_lo"`
	CIHi        float64       `json:"ci_hi"`
	OracleCPI   float64       `json:"oracle_cpi"`
	RelErr      float64       `json:"rel_err"`
	SEInflation float64       `json:"se_inflation,omitempty"`
	Strata      []StratumInfo `json:"strata,omitempty"`
}

// StratumInfo is one row of the Neyman allocation table (Eq. 1).
type StratumInfo struct {
	Phase       int     `json:"phase"`
	Units       int     `json:"units"`    // population N_h
	Measured    int     `json:"measured"` // drawable frame size
	Weight      float64 `json:"weight"`   // N_h / N
	Sigma       float64 `json:"sigma"`    // profiled σ_h
	Alloc       int     `json:"alloc"`    // n_h
	SampledMean float64 `json:"sampled_mean"`
	Imputed     bool    `json:"imputed,omitempty"`
}

// NewManifest builds a manifest shell with build info filled in.
func NewManifest(tool string, args []string) *Manifest {
	return &Manifest{
		Version: ManifestVersion,
		Tool:    tool,
		Args:    args,
		Build:   CurrentBuild(),
	}
}

// CurrentBuild reads the binary's build metadata.
func CurrentBuild() BuildInfo {
	b := BuildInfo{GoVersion: runtime.Version(), Revision: "devel"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				b.Revision = s.Value
			case "vcs.modified":
				b.Modified = s.Value == "true"
			}
		}
	}
	return b
}

// Finalize attaches the default registry's metric snapshot, the current
// span tree and the run's concurrent timer samples to the manifest.
// Call once, after the root span's End.
func (m *Manifest) Finalize() {
	m.Metrics = Default().Snapshot()
	m.Spans = SpanTree()
	m.TimerSamples, m.TimerSamplesDropped = TimerSamples()
}

// Encode writes the manifest as indented JSON. Field order is fixed by
// the struct layout and metric order by name, so the output is
// deterministic up to durations.
func (m *Manifest) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("obs: encode manifest: %w", err)
	}
	return nil
}

// WriteFile writes the manifest to path atomically: the JSON lands in
// a same-directory temp file that is fsynced and renamed over path, so
// a crash mid-write can never leave a half-written manifest where a
// complete one (or nothing) was expected.
func (m *Manifest) WriteFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".manifest-*.tmp")
	if err != nil {
		return fmt.Errorf("obs: write manifest: %w", err)
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename
	if err := m.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("obs: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: write manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("obs: write manifest: %w", err)
	}
	return nil
}

// DecodeManifestLenient reads a manifest tolerating version skew. Older
// versions decode fine (the schema only grows fields); a manifest
// written by a newer binary decodes with a non-empty note describing
// the skew instead of an error, so renderers can degrade gracefully.
// Malformed JSON and nonsensical versions still error.
func DecodeManifestLenient(r io.Reader) (m *Manifest, note string, err error) {
	m = &Manifest{}
	if err := json.NewDecoder(r).Decode(m); err != nil {
		return nil, "", fmt.Errorf("obs: decode manifest: %w", err)
	}
	if m.Version < 1 {
		return nil, "", fmt.Errorf("obs: manifest version %d is not valid", m.Version)
	}
	if m.Version > ManifestVersion {
		note = fmt.Sprintf("manifest version %d is newer than this binary reads (%d); unknown fields were dropped", m.Version, ManifestVersion)
	}
	return m, note, nil
}

// ReadManifestFileLenient reads the manifest at path tolerating version
// skew (see DecodeManifestLenient).
func ReadManifestFileLenient(path string) (*Manifest, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", fmt.Errorf("obs: read manifest: %w", err)
	}
	defer f.Close()
	return DecodeManifestLenient(f)
}
