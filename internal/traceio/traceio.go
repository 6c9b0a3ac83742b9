// Package traceio loads trace files of either supported format: the
// native viva text format or the Paje format (as produced by SimGrid and
// consumed by the original VIVA). The format is sniffed from the content,
// so the command-line tools take any trace file. Gzip-compressed traces
// (of either format) are detected by magic number and decompressed
// transparently.
package traceio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"viva/internal/ingest"
	"viva/internal/obs"
	"viva/internal/paje"
	"viva/internal/store"
	"viva/internal/trace"
)

// Load reads a trace file, auto-detecting its format (and gzip
// compression) with default ingestion options.
func Load(path string) (*trace.Trace, error) {
	return LoadWith(path, ingest.Options{})
}

// LoadWith is Load with explicit ingestion options. Columnar .vvc files
// (see internal/store) are recognised by magic and materialized in full;
// use store.Open directly to query one out-of-core instead.
func LoadWith(path string, opt ingest.Options) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var head [4]byte
	if n, _ := f.ReadAt(head[:], 0); n == 4 && store.IsColumnar(head[:n]) {
		f.Close()
		st, err := store.Open(path)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		return st.ReadAll()
	}
	defer f.Close()
	return ReadWith(f, opt)
}

// Read reads a trace from a stream with default ingestion options,
// auto-detecting gzip compression and the format: lines starting with '%'
// mean Paje, anything else the native format.
func Read(r io.Reader) (*trace.Trace, error) {
	return ReadWith(r, ingest.Options{})
}

// ReadWith is Read with explicit ingestion options. The whole load is
// recorded as an obs "ingest" span (in viva_stage_seconds and any
// attached self-trace; the viva_ingest_* counters accumulate bytes, lines
// and events).
func ReadWith(r io.Reader, opt ingest.Options) (*trace.Trace, error) {
	sp := obs.StartSpan(obs.StageIngest)
	defer sp.End()

	br, head, err := ingest.Unwrap(r)
	if err != nil {
		return nil, err
	}
	if store.IsColumnar(head) {
		return readColumnar(br)
	}
	if ingest.IsPaje(head) {
		return paje.ReadWith(br, opt)
	}
	return trace.ReadWith(br, opt)
}

// readColumnar materializes a full in-heap trace from a .vvc columnar
// stream. The random-access store needs a file, so the stream is spooled
// to a temporary one; callers that want the out-of-core read path should
// use store.Open directly instead of the transparent loaders.
func readColumnar(r io.Reader) (*trace.Trace, error) {
	tmp, err := os.CreateTemp("", "viva-vvc-*.tmp")
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	if _, err := io.Copy(tmp, r); err != nil {
		return nil, err
	}
	st, err := store.Open(tmp.Name())
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.ReadAll()
}

// LoadEdges reads a connection-configuration file — one "a b" pair per
// line, '#' comments, double quotes protecting names with spaces — and
// declares the edges into the trace. This is the original VIVA's mechanism
// for telling the graph view how monitored entities are interconnected
// when the trace itself (e.g. a Paje file) does not say; the paper's
// Section 3.1 lists exactly this "previously defined" connection source.
func LoadEdges(path string, tr *trace.Trace) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	lineno := 0
	var toks [][]byte
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		// Quote-aware split: resource names may contain spaces (Paje
		// quotes them in traces, so edge files must be able to too).
		toks = ingest.Tokenize(line, toks[:0])
		if len(toks) != 2 {
			return n, fmt.Errorf("%s:%d: want \"<a> <b>\", got %q", path, lineno, line)
		}
		if err := tr.DeclareEdge(string(toks[0]), string(toks[1])); err != nil {
			return n, fmt.Errorf("%s:%d: %v", path, lineno, err)
		}
		n++
	}
	return n, sc.Err()
}

// MustLoadWith is LoadWith, exiting the program on error — for
// command-line mains.
func MustLoadWith(path string, opt ingest.Options) *trace.Trace {
	tr, err := LoadWith(path, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	return tr
}
