package trace

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Format is a registered trace serialization. The gob codec is built
// in; binary codecs (internal/tracebin) register themselves at
// init time, image.RegisterFormat-style, which keeps this package free
// of a dependency on their implementation. Magic is the byte prefix that
// identifies the format on disk; Decode receives the whole input so
// zero-copy decoders can alias it.
type Format struct {
	Name   string
	Magic  string
	Decode func(data []byte) (*Trace, error)
	Encode func(t *Trace, w io.Writer) error
}

var (
	formatMu sync.RWMutex
	formats  []Format
)

// RegisterFormat adds a binary trace format to the sniffing table used
// by DecodeBytes and to the name table used by Encode. Registering an
// empty name or magic, or a duplicate of either, panics: it is a
// programming error wired at init time.
func RegisterFormat(f Format) {
	if f.Name == "" || f.Magic == "" || f.Decode == nil || f.Encode == nil {
		panic("trace: RegisterFormat with missing name, magic or codec")
	}
	formatMu.Lock()
	defer formatMu.Unlock()
	for _, g := range formats {
		if g.Name == f.Name || g.Magic == f.Magic {
			panic(fmt.Sprintf("trace: format %q (magic %q) already registered", f.Name, f.Magic))
		}
	}
	formats = append(formats, f)
}

// FormatNames lists the encodable formats: the built-in gob plus
// everything registered, sorted.
func FormatNames() []string {
	formatMu.RLock()
	defer formatMu.RUnlock()
	names := []string{"gob"}
	for _, f := range formats {
		names = append(names, f.Name)
	}
	sort.Strings(names)
	return names
}

// lookupFormat returns the registered format with the given name.
func lookupFormat(name string) (Format, bool) {
	formatMu.RLock()
	defer formatMu.RUnlock()
	for _, f := range formats {
		if f.Name == name {
			return f, true
		}
	}
	return Format{}, false
}

// sniffFormat returns the registered format whose magic prefixes data.
func sniffFormat(data []byte) (Format, bool) {
	formatMu.RLock()
	defer formatMu.RUnlock()
	for _, f := range formats {
		if bytes.HasPrefix(data, []byte(f.Magic)) {
			return f, true
		}
	}
	return Format{}, false
}

// Encode writes the trace in the named format ("gob", or any registered
// binary format such as "bin").
func (t *Trace) Encode(w io.Writer, format string) error {
	if format == "gob" {
		return t.EncodeGob(w)
	}
	if f, ok := lookupFormat(format); ok {
		return f.Encode(t, w)
	}
	return fmt.Errorf("trace: unknown format %q (have: %v)", format, FormatNames())
}

// DecodeBytes decodes a trace of any known format, detecting the format
// from the bytes themselves: a registered magic prefix selects that
// binary codec (which may alias data — the caller must not mutate the
// buffer while the trace lives), and anything else is tried as gob.
// Like the per-format decoders it never panics on malformed input and
// never returns a trace that fails Validate: every format rejects a
// malformed trace through Validate's one rule (ValidateHeader and
// ValidateUnit), with its message.
func DecodeBytes(data []byte) (*Trace, error) {
	if f, ok := sniffFormat(data); ok {
		return f.Decode(data)
	}
	t, err := DecodeGob(bytes.NewReader(data))
	if err != nil {
		// No known magic, not gob: most likely a foreign file.
		return nil, fmt.Errorf("unrecognized trace format (tried %v): %w", FormatNames(), err)
	}
	return t, nil
}

// DecodeBytesCtx is DecodeBytes under a context. The codecs themselves
// are monolithic (a half-decoded trace is useless), so cancellation is
// honored at the boundaries: a dead context skips the decode entirely,
// and a context that dies during the decode discards the result. That
// bounds the wasted work to one codec run instead of the downstream
// pipeline.
func DecodeBytesCtx(ctx context.Context, data []byte) (*Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t, err := DecodeBytes(data)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
