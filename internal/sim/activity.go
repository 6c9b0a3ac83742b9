package sim

import (
	"cmp"
	"slices"
)

type activityKind int

const (
	actExec activityKind = iota
	actComm
	actSleep
)

// resource is the engine-side view of a host or link: a capacity shared by
// the flows currently attached to it.
type resource struct {
	name  string
	order int32 // rank in the engine's name-sorted resource list
	// heapIdx-style scratch used by the recompute scan and the solver;
	// valid only inside the call that set it.
	scanned  uint64  // recompute scan stamp (== engine scanEpoch when visited)
	remCap   float64 // max-min solver: remaining capacity
	nUnfixed int     // max-min solver: flows not yet fixed

	capacity float64
	isHost   bool

	// flows holds the attached, live flows in id order, kept so on attach
	// and detach: the component scan, the solver and the usage sums read
	// it directly, and summing in id order keeps traced totals stable.
	flows []*activity

	inDirty bool // already queued on the engine's dirty list

	// Fault state. nominal is the healthy capacity (what SetHostPower
	// and recoveries restore), degrade the standing LinkDegrade factor;
	// capacity is the derived effective value — 0 while down.
	nominal float64
	degrade float64
	down    bool

	// Last traced totals, to avoid redundant trace points.
	lastUsage   float64
	lastByCat   map[string]float64
	traceUsage  bool
	usageMetric string
}

// addFlow attaches a flow at its id's place. New activities get
// increasing ids, so this is usually an append; a communication whose
// latency phase ends goes in ahead of the younger flows already attached.
func (r *resource) addFlow(f *activity) {
	i, _ := slices.BinarySearchFunc(r.flows, f.id, flowID)
	r.flows = slices.Insert(r.flows, i, f)
}

// removeFlow detaches a flow, keeping the rest in id order.
func (r *resource) removeFlow(f *activity) {
	if i, ok := slices.BinarySearchFunc(r.flows, f.id, flowID); ok {
		r.flows = slices.Delete(r.flows, i, i+1)
	}
}

func flowID(f *activity, id int64) int { return cmp.Compare(f.id, id) }

// activity is one unit of simulated work: an execution, a communication
// flow, or a timer. Activities are pooled on the engine: completed ones
// are recycled, so steady-state execution allocates none.
type activity struct {
	id       int64
	kind     activityKind
	category string

	resources []*resource // host (exec) or route links (comm)
	attached  bool        // flows only count once attached (after latency)

	delay      float64 // pending latency/sleep duration, from lastUpdate
	remaining  float64 // flops or bytes left
	rate       float64 // currently assigned progress rate
	lastUpdate float64 // engine time of the last settle

	done    bool
	failure error // why the activity was interrupted (nil on success)
	waiters []*Actor

	payload    any // comm payload, delivered on completion
	srcHost    string
	dstHost    string
	totalBytes float64

	// comms are the (up to two) handles of a communication. On completion
	// the engine copies the final state into them and drops the links, so
	// the activity can be recycled while the handles stay valid.
	comms [2]*Comm

	scanned uint64 // recompute scan stamp
	fixed   bool   // max-min solver scratch
	heapIdx int32  // position in the engine's event queue, -1 when absent
}

func (a *activity) addWaiter(w *Actor) {
	a.waiters = append(a.waiters, w)
}

// settle advances remaining to engine time now under the current rate.
func (a *activity) settle(now float64) {
	if a.attached && !a.done {
		a.remaining -= a.rate * (now - a.lastUpdate)
		if a.remaining < 0 {
			a.remaining = 0
		}
	}
	a.lastUpdate = now
}

// eventTime returns the absolute time of the activity's next event under
// current rates: end of its delay phase, or completion of its work phase.
// It returns false when no event is pending (for example a zero-rate flow).
func (a *activity) eventTime() (float64, bool) {
	if a.done {
		return 0, false
	}
	if !a.attached {
		return a.lastUpdate + a.delay, true
	}
	if a.rate <= 0 {
		return 0, false
	}
	return a.lastUpdate + a.remaining/a.rate, true
}

// eventEntry is one element of the engine's indexed event queue.
type eventEntry struct {
	t   float64
	act *activity
}
