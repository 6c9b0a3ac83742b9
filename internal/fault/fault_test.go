package fault

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestNewScheduleSortsAndValidates(t *testing.T) {
	s, err := NewSchedule(
		Event{Time: 5, Kind: HostUp, Target: "h1"},
		Event{Time: 1, Kind: HostDown, Target: "h1"},
		Event{Time: 3, Kind: LinkDegrade, Target: "l1", Factor: 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	evs := s.Events()
	if len(evs) != 3 || evs[0].Time != 1 || evs[1].Time != 3 || evs[2].Time != 5 {
		t.Fatalf("not time-sorted: %+v", evs)
	}
	if got := s.Targets(); !reflect.DeepEqual(got, []string{"h1", "l1"}) {
		t.Fatalf("Targets = %v", got)
	}
}

func TestValidationRejectsBadEvents(t *testing.T) {
	cases := []Event{
		{Time: -1, Kind: HostDown, Target: "h"},
		{Time: 1, Kind: HostDown, Target: ""},
		{Time: 1, Kind: LinkDegrade, Target: "l", Factor: 0},
		{Time: 1, Kind: LinkDegrade, Target: "l", Factor: 1.5},
		{Time: 1, Kind: LatencySpike, Target: "l", Factor: -2},
		{Time: 1, Kind: Kind(99), Target: "x"},
	}
	for _, ev := range cases {
		if _, err := NewSchedule(ev); err == nil {
			t.Errorf("NewSchedule(%+v) accepted invalid event", ev)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	s := MustSchedule(
		Event{Time: 0.5, Kind: HostDown, Target: "c-1"},
		Event{Time: 2, Kind: LinkDegrade, Target: "lnk:c-2", Factor: 0.25},
		Event{Time: 3, Kind: LatencySpike, Target: "bb:c", Factor: 0.01},
		Event{Time: 4, Kind: HostUp, Target: "c-1"},
		Event{Time: 6, Kind: LinkDown, Target: "lnk:c-3"},
		Event{Time: 7, Kind: LinkUp, Target: "lnk:c-3"},
	)
	var buf bytes.Buffer
	if err := s.Format(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events(), s.Events()) {
		t.Fatalf("round trip changed schedule:\nwant %+v\ngot  %+v", s.Events(), got.Events())
	}
}

func TestParseComments(t *testing.T) {
	in := `# scenario: one crash
0 host_down c-1

# recovery
5 host_up c-1
`
	s, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestParseErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"0 host_down", "line 1"},
		{"0 host_down c-1\nxyz host_up c-1", "line 2"},
		{"0 frobnicate c-1", "unknown event kind"},
		{"0 link_degrade l", "wants a factor"},
		{"0 link_degrade l 2", "factor in (0, 1]"},
		{"0 host_down c-1 0.5", "wants no factor"},
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error = %v, want substring %q", c.in, err, c.wantSub)
		}
	}
}

func TestChurnDeterministic(t *testing.T) {
	cfg := ChurnConfig{
		Hosts:     []string{"c-1", "c-2", "c-3", "c-4", "c-5", "c-6", "c-7", "c-8"},
		Links:     []string{"lnk:c-1", "lnk:c-2", "lnk:c-3", "lnk:c-4"},
		Horizon:   50,
		HostChurn: 0.5,
		LinkChurn: 0.5,
	}
	a := Churn(42, cfg)
	b := Churn(42, cfg)
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatalf("same seed produced different schedules:\n%+v\n%+v", a.Events(), b.Events())
	}
	c := Churn(43, cfg)
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Fatal("different seeds produced identical non-trivial schedules")
	}
	if a.Len() == 0 {
		t.Fatal("churn with 50% rates produced no events")
	}
	for _, ev := range a.Events() {
		if ev.Time < 0 || ev.Time >= cfg.Horizon {
			t.Fatalf("event outside horizon: %+v", ev)
		}
	}
}

func TestChurnDoesNotMutateConfigSlices(t *testing.T) {
	hosts := []string{"c-2", "c-1", "c-3"}
	orig := append([]string(nil), hosts...)
	Churn(1, ChurnConfig{Hosts: hosts, HostChurn: 1})
	if !reflect.DeepEqual(hosts, orig) {
		t.Fatalf("Churn reordered caller's slice: %v", hosts)
	}
}

func TestChurnPairsDownWithUp(t *testing.T) {
	s := Churn(7, ChurnConfig{
		Hosts:     []string{"a", "b", "c", "d"},
		HostChurn: 1,
		Horizon:   20,
	})
	downs := map[string]int{}
	ups := map[string]int{}
	for _, ev := range s.Events() {
		switch ev.Kind {
		case HostDown:
			downs[ev.Target]++
		case HostUp:
			ups[ev.Target]++
		}
	}
	if len(downs) != 4 {
		t.Fatalf("HostChurn=1 should crash all 4 hosts, got %d", len(downs))
	}
	if !reflect.DeepEqual(downs, ups) {
		t.Fatalf("crashes and recoveries unmatched: down=%v up=%v", downs, ups)
	}
}

// Targets returns the sorted set of resource names the schedule touches.
// Only tests ask, so it lives here.
func (s *Schedule) Targets() []string {
	seen := make(map[string]bool)
	var out []string
	for _, ev := range s.events {
		if !seen[ev.Target] {
			seen[ev.Target] = true
			out = append(out, ev.Target)
		}
	}
	sort.Strings(out)
	return out
}
