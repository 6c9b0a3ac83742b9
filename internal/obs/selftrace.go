// Meta-trace: the observability layer can emit its own spans in the Paje
// file format — the very format this tool visualizes — closing the loop:
// `vivaserve -selftrace out.paje`, then `viva -trace out.paje` shows the
// visualizer's execution as a topology of pipeline stages sized by span
// duration. The structure written is a root container "viva" with one
// child container per stage ("aggregate", "build", "layout", "render",
// plus "frame" for whole frames), each carrying a "duration_ms" variable
// timeline: one point per span, at the span's end time, valued at its
// duration in milliseconds (mirrored as "power" so the host mapping
// sizes the stage squares). internal/paje reads the output back without
// loss.

package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
)

// pajeHeader declares the four event kinds the writer uses, in the
// self-describing %EventDef form internal/paje parses.
const pajeHeader = `%EventDef PajeDefineContainerType 0
%  Alias string
%  Name string
%  Type string
%EndEventDef
%EventDef PajeDefineVariableType 1
%  Alias string
%  Name string
%  Type string
%EndEventDef
%EventDef PajeCreateContainer 2
%  Time date
%  Alias string
%  Type string
%  Container string
%  Name string
%EndEventDef
%EventDef PajeSetVariable 3
%  Time date
%  Type string
%  Container string
%  Value double
%EndEventDef
`

// SelfTrace streams spans to a Paje trace. It is a Subscriber: attach it
// to a ring and every stage duration fanned out there is written. Writes
// are serialized by a mutex and buffered; Close flushes.
type SelfTrace struct {
	mu       sync.Mutex
	w        *bufio.Writer
	c        io.Closer
	startNs  int64 // NowNs at creation: the trace's time zero
	lastT    float64
	declared [MaxStages]bool
	err      error
}

// NewSelfTrace starts a meta-trace on w (which is closed by Close when
// it implements io.Closer). The Paje header, the type hierarchy and the
// root "viva" container are written immediately.
func NewSelfTrace(w io.Writer) *SelfTrace {
	st := &SelfTrace{
		w:       bufio.NewWriter(w),
		startNs: NowNs(),
	}
	if c, ok := w.(io.Closer); ok {
		st.c = c
	}
	st.put(pajeHeader)
	// Type hierarchy: platform ⊃ stage. The container type is named
	// "stage_node" so internal/paje maps it to a host — the default
	// visual mapping then draws each stage as a square. Stages carry two
	// variables per span: "duration_ms" keeps the raw value under an
	// honest name, and "power" repeats it so the host mapping sizes each
	// stage by its span durations — `viva -trace self.paje` shows the
	// pipeline with big squares where the time went.
	st.put("0 \"CT_platform\" \"platform\" \"0\"\n")
	st.put("0 \"CT_stage\" \"stage_node\" \"CT_platform\"\n")
	st.put("1 \"V_dur\" \"duration_ms\" \"CT_stage\"\n")
	st.put("1 \"V_pow\" \"power\" \"CT_stage\"\n")
	st.put("2 0 \"viva\" \"CT_platform\" \"0\" \"viva\"\n")
	return st
}

// StartSelfTrace creates path and starts a meta-trace into it.
func StartSelfTrace(path string) (*SelfTrace, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewSelfTrace(f), nil
}

// put appends raw text, remembering the first write error.
func (st *SelfTrace) put(s string) {
	if st.err == nil {
		_, st.err = st.w.WriteString(s)
	}
}

// Record emits one span: ensure the stage container exists, then set its
// duration variable at the span's end time. Timestamps are seconds since
// the trace started, clamped monotonic (concurrent spans may finish out
// of order by nanoseconds; Paje bodies are conventionally time-sorted).
func (st *SelfTrace) Record(stage StageID, atNs, durNs int64) {
	name := StageName(stage)
	if name == "" {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	t := float64(atNs-st.startNs) / 1e9
	if t < st.lastT {
		t = st.lastT
	}
	st.lastT = t
	if !st.declared[stage] {
		st.declared[stage] = true
		st.put(fmt.Sprintf("2 %.9f %q \"CT_stage\" \"viva\" %q\n", t, name, name))
	}
	ms := float64(durNs) / 1e6
	st.put(fmt.Sprintf("3 %.9f \"V_dur\" %q %g\n", t, name, ms))
	st.put(fmt.Sprintf("3 %.9f \"V_pow\" %q %g\n", t, name, ms))
}

// Close flushes and closes the underlying writer, reporting the first
// error seen over the trace's lifetime.
func (st *SelfTrace) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.w.Flush(); st.err == nil {
		st.err = err
	}
	if st.c != nil {
		if err := st.c.Close(); st.err == nil {
			st.err = err
		}
	}
	return st.err
}
