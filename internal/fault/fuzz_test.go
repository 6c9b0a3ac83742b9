package fault

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzScheduleParse asserts the schedule text parser never panics on
// arbitrary input and that every rejection names the offending line.
// Accepted inputs must survive a Format → Parse round trip with the
// event list unchanged — the reproducibility contract the fault package
// promises (a scenario file regenerates the exact schedule). The seed
// corpus covers every event kind, comments and blank lines, every error
// branch (short line, bad time, unknown kind, factor arity, bad factor,
// out-of-range factor, negative time) and a line larger than the scan
// buffer.
func FuzzScheduleParse(f *testing.F) {
	f.Add("# fault schedule\n10 host_down h3\n20 host_up h3\n")
	f.Add("5 link_down l0\n7.5 link_up l0\n")
	f.Add("1 link_degrade l1 0.25\n2 link_degrade l1 1\n")
	f.Add("3 latency_spike l2 0.05\n4 latency_spike l2 0\n")
	f.Add("  \n# comment\n\n\t\n")
	f.Add("")
	f.Add("10 host_down\n")                                   // short line
	f.Add("abc host_down h1\n")                               // bad time
	f.Add("1 host_explode h1\n")                              // unknown kind
	f.Add("1 link_degrade l1\n")                              // missing factor
	f.Add("1 link_degrade l1 x\n")                            // bad factor
	f.Add("1 link_degrade l1 1.5\n")                          // factor out of (0, 1]
	f.Add("1 link_degrade l1 0\n")                            // factor out of (0, 1]
	f.Add("1 latency_spike l1 -1\n")                          // negative delay
	f.Add("1 latency_spike l1 NaN\n")                         // non-finite delay
	f.Add("-1 host_down h1\n")                                // negative time
	f.Add("NaN host_down h1\n")                               // non-finite time
	f.Add("1 host_down h1 9\n")                               // extra factor
	f.Add("2 host_up h2 h3 h4\n")                             // too many fields
	f.Add("1e-9 host_down a\n1e-9 host_up a\n")               // equal times keep order
	f.Add("3 host_down h1\n1 host_down h2\n")                 // unsorted input
	f.Add("1 host_down \"h 1\"\n")                            // quotes are not special
	f.Add("1\thost_down\th1\r\n")                             // tabs and CRLF
	f.Add("1 host_down " + strings.Repeat("x", 2<<20) + "\n") // over the scan buffer

	f.Fuzz(func(t *testing.T, input string) {
		s, err := Parse(strings.NewReader(input))
		if err != nil {
			if !strings.Contains(err.Error(), "line ") {
				t.Fatalf("error without a line number: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := s.Format(&buf); err != nil {
			t.Fatalf("format accepted schedule: %v", err)
		}
		s2, err := Parse(&buf)
		if err != nil {
			t.Fatalf("reparse of formatted schedule: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(s.Events(), s2.Events()) {
			t.Fatalf("round trip changed the schedule:\nwas  %+v\nnow  %+v", s.Events(), s2.Events())
		}
	})
}
