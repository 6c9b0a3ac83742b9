// Package ingest is the scan stage of trace ingestion: it chunks an input
// stream at line boundaries, classifies and tokenizes each line into
// zero-copy [][]byte slices over a recycled read buffer, and hands the
// token batches — in input order — to a sequential, stateful apply stage
// (the Paje and native readers in internal/paje and internal/trace).
//
// The split buys two things. First, the scan work (buffer management,
// line splitting, quote-aware tokenization) is allocation-free and pure,
// so with Parallelism > 1 it runs on worker goroutines over independent
// chunks while the apply stage consumes re-sequenced batches; the apply
// stage is always sequential in input order, so the resulting trace is
// byte-identical at every Parallelism setting. Second, even the serial
// path drops the per-line bufio.Scanner + strings.Builder + []string
// machinery the readers used before, which dominated load time on
// million-event traces.
//
// Tokens passed to a LineFunc alias the internal read buffer and are only
// valid for the duration of the call; appliers intern what they keep (see
// Interner).
package ingest

import (
	"bytes"
	"unicode"
	"unicode/utf8"

	"viva/internal/obs"
)

// Ingest-stage observability: byte and line totals are counted by the
// scanner itself; appliers account events (body lines that reached the
// semantic stage) via Events so /metrics shows where load time goes.
var (
	obsBytes = obs.Default.Counter("viva_ingest_bytes_total",
		"Bytes consumed by the trace ingestion scan stage.")
	obsLines = obs.Default.Counter("viva_ingest_lines_total",
		"Input lines processed by the trace ingestion scan stage.")
	// Events is incremented by the format appliers (Paje, native) with
	// the number of semantic lines applied.
	Events = obs.Default.Counter("viva_ingest_events_total",
		"Semantic trace events applied by the ingestion apply stage.")
)

// Options tune the scan stage of ingestion.
type Options struct {
	// Parallelism is the number of goroutines tokenizing chunks:
	// 0 uses GOMAXPROCS, 1 runs fully inline (no goroutines). The apply
	// stage is sequential in input order regardless, so the parsed trace
	// is identical at every setting.
	Parallelism int
}

// Dialect selects the line grammar of the scan stage.
type Dialect uint8

const (
	// DialectPaje honours '%' header lines (whitespace fields) and
	// double-quoted tokens in event lines.
	DialectPaje Dialect = iota
	// DialectNative splits every line on whitespace, like strings.Fields.
	DialectNative
)

// LineKind classifies a scanned line.
type LineKind uint8

const (
	// LineSkip is a blank line, a '#' comment, a '%' header with no
	// fields, or an event line that tokenized to nothing — lines the
	// apply stage ignores (they still count for line numbering).
	LineSkip LineKind = iota
	// LineHeader is a Paje '%' line; tokens are the whitespace-separated
	// fields after the '%'.
	LineHeader
	// LineEvent is a semantic line; it always carries at least one token.
	LineEvent
)

// LineFunc is the apply stage: it receives each line's 1-based number,
// kind and tokens, strictly in input order. Returning an error aborts the
// scan with that error. Tokens are only valid during the call.
type LineFunc func(lineno int, kind LineKind, toks [][]byte) error

// Interner deduplicates the strings an apply stage keeps out of the
// recycled scan buffers. Trace files repeat container, type and state
// names millions of times; interning makes each distinct name one
// allocation total, and the returned strings pointer-compare equal, which
// keeps downstream map lookups and equality checks cheap.
type Interner struct {
	m map[string]string
}

// NewInterner returns an empty interner ("" is pre-interned).
func NewInterner() *Interner {
	return &Interner{m: map[string]string{"": ""}}
}

// Intern returns the canonical string for b, allocating only the first
// time a distinct value is seen. Intern(nil) is "".
func (in *Interner) Intern(b []byte) string {
	if s, ok := in.m[string(b)]; ok { // no-alloc map probe
		return s
	}
	s := string(b)
	in.m[s] = s
	return s
}

// Len returns how many distinct strings have been interned.
func (in *Interner) Len() int { return len(in.m) - 1 }

// Tokenize splits a Paje event line into tokens, honouring double quotes,
// appending the tokens (zero-copy subslices of line) to out. The grammar
// matches the historical reader exactly: '"' always delimits a token (a
// closing quote emits the quoted run even when empty), unquoted runs
// split on spaces and tabs, and an unterminated quote yields the rest of
// the line as a final token if non-empty.
func Tokenize(line []byte, out [][]byte) [][]byte {
	start := -1 // start of the current unquoted run, -1 when none
	inQuote := false
	qstart := 0
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '"':
			if inQuote {
				out = append(out, line[qstart:i])
				inQuote = false
			} else {
				if start >= 0 {
					out = append(out, line[start:i])
					start = -1
				}
				inQuote = true
				qstart = i + 1
			}
		case (c == ' ' || c == '\t') && !inQuote:
			if start >= 0 {
				out = append(out, line[start:i])
				start = -1
			}
		default:
			if !inQuote && start < 0 {
				start = i
			}
		}
	}
	switch {
	case inQuote && qstart < len(line):
		out = append(out, line[qstart:])
	case start >= 0:
		out = append(out, line[start:])
	}
	return out
}

// asciiSpace mirrors the table strings.Fields uses for the fast path.
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// Fields splits line around runs of white space exactly like
// strings.Fields (Unicode-aware), appending zero-copy subslices to out.
func Fields(line []byte, out [][]byte) [][]byte {
	i, n := 0, len(line)
	for i < n {
		// Skip white space.
		for i < n {
			if c := line[i]; c < utf8.RuneSelf {
				if asciiSpace[c] == 0 {
					break
				}
				i++
			} else {
				r, sz := utf8.DecodeRune(line[i:])
				if !unicode.IsSpace(r) {
					break
				}
				i += sz
			}
		}
		if i >= n {
			break
		}
		start := i
		for i < n {
			if c := line[i]; c < utf8.RuneSelf {
				if asciiSpace[c] == 1 {
					break
				}
				i++
			} else {
				r, sz := utf8.DecodeRune(line[i:])
				if unicode.IsSpace(r) {
					break
				}
				i += sz
			}
		}
		out = append(out, line[start:i])
	}
	return out
}

// tokenizeLine classifies one raw line under the dialect and appends its
// tokens to out. It reproduces the historical readers byte for byte:
// Unicode TrimSpace, '#' comments, Paje '%' headers split like
// strings.Fields, quote-aware event tokens (Paje) or plain fields
// (native).
//
// out may already hold earlier lines' tokens (a scan chunk shares one
// token buffer), so a line's kind depends only on what it appended.
func tokenizeLine(d Dialect, raw []byte, out [][]byte) (LineKind, [][]byte) {
	line := bytes.TrimSpace(raw)
	if len(line) == 0 || line[0] == '#' {
		return LineSkip, out
	}
	n := len(out)
	if d == DialectPaje {
		if line[0] == '%' {
			out = Fields(line[1:], out)
			if len(out) == n {
				return LineSkip, out
			}
			return LineHeader, out
		}
		out = Tokenize(line, out)
	} else {
		out = Fields(line, out)
	}
	if len(out) == n {
		return LineSkip, out
	}
	return LineEvent, out
}
