package paje

import (
	"bytes"
	"strings"
	"testing"

	"viva/internal/ingest"
	"viva/internal/trace"
)

// FuzzPajeParse asserts the Paje parser never panics on arbitrary input
// and never hands back a structurally invalid trace — and, differentially,
// that the pipelined reader agrees with the historical serial reference
// (reference_test.go) on every input at every parallelism: identical
// traces under the canonical serialization, or identical errors. The seed
// corpus walks every event family the parser implements plus the syntax
// hazards: quoting, CRLF line endings, comments, missing fields, bad
// numbers and lines larger than the scan chunk.
func FuzzPajeParse(f *testing.F) {
	f.Add(sampleHeader + sampleBody)
	f.Add("%EventDef PajeCreateContainer 4\n%\tTime date\n%EndEventDef\n4 zz\n")
	f.Add("% \n")
	f.Add("0\n")
	f.Add("")
	f.Add("# comment only\n\n#\n")
	f.Add("%EventDef PajeSetVariable 8\n% Time date\n% Type string\n% Container string\n% Value double\n%EndEventDef\n8 0.5 pow c1 NaN\n")
	f.Add("%EventDef PajeSetState 10\n% Time date\n% Container string\n% Value string\n%EndEventDef\n10 1.0 host \"busy state\"\n")
	f.Add("%EventDef PajePushState 11\n% Time date\n%EndEventDef\n%EventDef PajePopState 12\n% Time date\n%EndEventDef\n")
	f.Add("%EndEventDef\n")
	f.Add("%EventDef X 1\n% Time date\n%EndEventDef\n1 \"unterminated\n")
	f.Add("%EventDef PajeAddVariable 9\n% Time date\n% Value double\n%EndEventDef\n9 1e308 1e308\r\n9 -1e308 -1e308\n")
	// A header line and a body line that tokenize to nothing, after
	// lines that did (the pipelined scan shares one token buffer).
	f.Add("%EventDef 0 0\n%\n")
	f.Add("%EventDef 000000000000000 0\n\"\n")
	// Non-finite times on a variable and on a state event.
	f.Add(sampleHeader + sampleBody + "6 inf power h1 80\n")
	f.Add(sampleHeader + sampleBody + "10 NaN STATE p1 Ssend\n")
	// Quoted tokens in every position, including empty and glued quotes.
	f.Add(sampleHeader + "4 0 \"c 1\" ZONE 0 \"\"\n4 0 c2\"x\"y ZONE 0 \"a\tb\"\n6 0 power \"c 1\" 1\n")
	// CRLF endings throughout, with a quoted token spanning spaces.
	f.Add("%EventDef PajeCreateContainer 4\r\n% Time date\r\n% Alias string\r\n% Type string\r\n% Container string\r\n% Name string\r\n%EndEventDef\r\n4 0 c1 T 0 \"win dows\"\r\n")
	// A single line far larger than 64 KiB (crosses scan chunk sizing).
	f.Add(sampleHeader + "4 0 big ZONE 0 \"" + strings.Repeat("b", 80<<10) + "\"\n6 0 power big 2\n")
	f.Fuzz(func(t *testing.T, input string) {
		refTr, refErr := readReference(strings.NewReader(input))
		for _, p := range []int{1, 3} {
			tr, err := ReadWith(strings.NewReader(input), ingest.Options{Parallelism: p})
			if (err == nil) != (refErr == nil) {
				t.Fatalf("p=%d: err = %v, reference err = %v", p, err, refErr)
			}
			if err != nil {
				if err.Error() != refErr.Error() {
					t.Fatalf("p=%d: err %q, reference err %q", p, err, refErr)
				}
				continue
			}
			// Whatever was accepted must be structurally valid and
			// byte-identical to the reference under trace.Write.
			if err := tr.Validate(); err != nil {
				t.Fatalf("p=%d: accepted paje trace invalid: %v", p, err)
			}
			var got, want bytes.Buffer
			if err := trace.Write(&got, tr); err != nil {
				t.Fatalf("p=%d: write: %v", p, err)
			}
			if err := trace.Write(&want, refTr); err != nil {
				t.Fatalf("write reference: %v", err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("p=%d: trace diverged from reference", p)
			}
		}
	})
}
