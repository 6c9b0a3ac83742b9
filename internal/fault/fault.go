// Package fault models deterministic failure scenarios for the
// simulator: a Schedule is a time-ordered list of fault events — host
// crashes and recoveries, link cuts, bandwidth degradations and latency
// spikes — that sim.Engine.InjectFaults applies while a simulation runs.
//
// Schedules are plain data with three construction paths: literal events
// (NewSchedule), a small line-oriented text format (Parse / Format), and
// a seeded pseudo-random churn generator (Churn). All three are fully
// deterministic: the same inputs always produce the same schedule, so a
// faulty run is exactly reproducible — the property the paper's analysis
// workflow depends on (a trace under study can be regenerated bit for
// bit).
package fault

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Kind is the type of one fault event.
type Kind int

const (
	// HostDown crashes a host: its compute capacity drops to zero and
	// every execution running there is interrupted with an error.
	HostDown Kind = iota
	// HostUp restores a crashed host to its nominal capacity.
	HostUp
	// LinkDown cuts a link: its bandwidth drops to zero and every
	// transfer crossing it is interrupted with an error.
	LinkDown
	// LinkUp restores a cut link to its nominal bandwidth.
	LinkUp
	// LinkDegrade sets a link's bandwidth to Factor × nominal
	// (0 < Factor ≤ 1; 1 restores full speed). Running transfers are
	// not interrupted — they re-share the reduced capacity.
	LinkDegrade
	// LatencySpike adds Factor seconds of latency to every transfer
	// matched over the link from this time on (0 clears the spike).
	LatencySpike
)

var kindNames = map[Kind]string{
	HostDown:     "host_down",
	HostUp:       "host_up",
	LinkDown:     "link_down",
	LinkUp:       "link_up",
	LinkDegrade:  "link_degrade",
	LatencySpike: "latency_spike",
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// String returns the kind's text-format name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// OnHost reports whether the kind targets a host (as opposed to a link).
func (k Kind) OnHost() bool { return k == HostDown || k == HostUp }

// HasFactor reports whether the kind carries a numeric factor operand.
func (k Kind) HasFactor() bool { return k == LinkDegrade || k == LatencySpike }

// Event is one scheduled fault.
type Event struct {
	Time   float64 // simulated time the fault strikes
	Kind   Kind
	Target string  // host or link name
	Factor float64 // LinkDegrade fraction or LatencySpike seconds
}

// Validate checks one event's fields.
func (ev Event) Validate() error {
	if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) || ev.Time < 0 {
		return fmt.Errorf("fault: event %s %q has invalid time %g", ev.Kind, ev.Target, ev.Time)
	}
	if ev.Target == "" {
		return fmt.Errorf("fault: %s event at t=%g has no target", ev.Kind, ev.Time)
	}
	if _, ok := kindNames[ev.Kind]; !ok {
		return fmt.Errorf("fault: unknown kind %d at t=%g", int(ev.Kind), ev.Time)
	}
	switch ev.Kind {
	case LinkDegrade:
		if !(ev.Factor > 0 && ev.Factor <= 1) {
			return fmt.Errorf("fault: link_degrade %q at t=%g wants a factor in (0, 1], got %g", ev.Target, ev.Time, ev.Factor)
		}
	case LatencySpike:
		if math.IsNaN(ev.Factor) || math.IsInf(ev.Factor, 0) || ev.Factor < 0 {
			return fmt.Errorf("fault: latency_spike %q at t=%g wants a non-negative delay, got %g", ev.Target, ev.Time, ev.Factor)
		}
	}
	return nil
}

// Schedule is a validated, time-ordered fault scenario. Events with equal
// times keep their construction order, so a schedule is a deterministic
// program whatever its source.
type Schedule struct {
	events []Event
}

// NewSchedule builds a schedule from events, validating each and sorting
// them by time (stable: ties keep argument order).
func NewSchedule(events ...Event) (*Schedule, error) {
	s := &Schedule{events: append([]Event(nil), events...)}
	for _, ev := range s.events {
		if err := ev.Validate(); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].Time < s.events[j].Time })
	return s, nil
}

// MustSchedule is NewSchedule panicking on error, for literal scenarios.
func MustSchedule(events ...Event) *Schedule {
	s, err := NewSchedule(events...)
	if err != nil {
		panic(err)
	}
	return s
}

// Events returns the schedule's events in time order. The slice is a
// copy.
func (s *Schedule) Events() []Event {
	return append([]Event(nil), s.events...)
}

// Len returns the number of events.
func (s *Schedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.events)
}

// The text format is one event per line, '#' comments and blank lines
// ignored:
//
//	<time> host_down|host_up|link_down|link_up <target>
//	<time> link_degrade <target> <factor>
//	<time> latency_spike <target> <seconds>

// Parse reads a schedule from its text form. Errors carry line numbers.
func Parse(r io.Reader) (*Schedule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var events []Event
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("fault: line %d: want \"<time> <kind> <target> [factor]\", got %q", lineno, line)
		}
		t, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("fault: line %d: bad time %q", lineno, fields[0])
		}
		kind, ok := kindByName[fields[1]]
		if !ok {
			return nil, fmt.Errorf("fault: line %d: unknown event kind %q", lineno, fields[1])
		}
		ev := Event{Time: t, Kind: kind, Target: fields[2]}
		switch {
		case kind.HasFactor():
			if len(fields) != 4 {
				return nil, fmt.Errorf("fault: line %d: %s wants a factor", lineno, kind)
			}
			ev.Factor, err = strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("fault: line %d: bad factor %q", lineno, fields[3])
			}
		case len(fields) != 3:
			return nil, fmt.Errorf("fault: line %d: %s wants no factor", lineno, kind)
		}
		if err := ev.Validate(); err != nil {
			return nil, fmt.Errorf("fault: line %d: %v", lineno, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fault: line %d: %v", lineno+1, err)
	}
	return NewSchedule(events...)
}

// ParseFile is Parse over a file's contents.
func ParseFile(path string) (*Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Format writes the schedule in its text form; Parse(Format(s)) yields an
// equal schedule.
func (s *Schedule) Format(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# fault schedule"); err != nil {
		return err
	}
	for _, ev := range s.events {
		var err error
		if ev.Kind.HasFactor() {
			_, err = fmt.Fprintf(bw, "%s %s %s %s\n", formatFloat(ev.Time), ev.Kind, ev.Target, formatFloat(ev.Factor))
		} else {
			_, err = fmt.Fprintf(bw, "%s %s %s\n", formatFloat(ev.Time), ev.Kind, ev.Target)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
