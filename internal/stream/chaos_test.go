package stream

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viva/internal/obs"
	"viva/internal/trace"
)

// chaosClient is one synthetic subscriber with a seeded misbehaviour. It
// verifies the exact delivery invariant the hub promises: within and
// across Takes, the next delta sequence number equals the previous one
// plus the reported drop count plus one, with full snapshots allowed to
// fast-forward (resume fallback).
type chaosClient struct {
	id       int
	behavior string
	prev     uint64
	resumes  int
	// closedEarly marks a client whose reconnect raced hub shutdown —
	// a legitimate end state, exempt from the final-seq convergence
	// check. Written before the client goroutine exits, read after
	// wg.Wait, so no atomics needed.
	closedEarly bool
	fails       atomic.Value // first invariant violation, as a string
}

func (c *chaosClient) failf(format string, args ...any) {
	c.fails.CompareAndSwap(nil, fmt.Sprintf("client %d (%s): %s", c.id, c.behavior, fmt.Sprintf(format, args...)))
}

// consume verifies one Take batch against the continuity invariant.
func (c *chaosClient) consume(snaps []*Snapshot, dropped uint64) {
	expect := c.prev + dropped + 1
	for _, sn := range snaps {
		if sn.Full {
			if sn.Seq < c.prev {
				c.failf("full snapshot went backwards: %d after %d", sn.Seq, c.prev)
			}
			c.prev = sn.Seq
			expect = c.prev + 1
			continue
		}
		if sn.Seq != expect {
			c.failf("delta seq %d, want %d (prev %d, dropped %d)", sn.Seq, expect, c.prev, dropped)
		}
		c.prev = sn.Seq
		expect = c.prev + 1
	}
}

// TestStreamChaos is the tentpole's acceptance harness: thousands of
// concurrent clients — most polite, some slow, some stalled outright,
// some disconnecting, some reconnecting with Last-Event-ID — against one
// publisher replaying a finished trace. It asserts the publisher never
// stalls (bounded tick latency, run completes), memory stays bounded
// (shared snapshots, no per-client copies), every surviving client
// converges on the final sequence number with the continuity invariant
// intact, and the live trace ends byte-identical to the cold original.
// CI runs it under -race.
func TestStreamChaos(t *testing.T) {
	clients := 5000
	events := 30000
	if testing.Short() {
		clients, events = 500, 5000
	}

	cold := buildCold(t, 16, events, 42)
	_, end := cold.Window()
	// Pace the replay to ~1.5s wall, ticking every 2ms, so the run has
	// hundreds of distinct snapshots for the rings to churn through.
	s, err := New(NewReplay(cold, end/1.5), Config{
		Tick:           2 * time.Millisecond,
		MaxTick:        50 * time.Millisecond,
		MaxSubscribers: clients + 64,
	})
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	flightBase := obs.Flight.Seq()
	dropBase := obsDropped.Value()

	// The hoarder subscribes before the first publish and never calls
	// Take until the publisher is done, so it sees every snapshot and its
	// ring overflows for certain: the run publishes far more snapshots
	// than a ring holds, whatever the scheduler does to the stallers.
	hoarder, err := s.Hub.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	pubDone := make(chan error, 1)
	go func() { pubDone <- s.Run(ctx) }()

	rng := rand.New(rand.NewSource(7))
	var wg sync.WaitGroup
	all := make([]*chaosClient, clients)
	for i := 0; i < clients; i++ {
		c := &chaosClient{id: i}
		switch {
		case i%20 == 1:
			c.behavior = "staller"
		case i%20 == 2:
			c.behavior = "disconnector"
		case i%20 == 3:
			c.behavior = "reconnector"
		case i%5 == 4:
			c.behavior = "slow"
		default:
			c.behavior = "normal"
		}
		all[i] = c
		seed := rng.Int63()
		wg.Add(1)
		go func(c *chaosClient, seed int64) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(seed))
			sub, err := s.Hub.Subscribe(0)
			if err != nil {
				c.failf("subscribe: %v", err)
				return
			}
			var buf []*Snapshot
			stalled := false
			for {
				<-sub.Notify()
				snaps, dropped, closed := sub.Take(buf)
				c.consume(snaps, dropped)
				buf = snaps[:0]
				if closed {
					return
				}
				switch c.behavior {
				case "slow":
					time.Sleep(time.Duration(1+crng.Intn(8)) * time.Millisecond)
				case "staller":
					if !stalled && c.prev > 20 {
						stalled = true
						time.Sleep(time.Duration(100+crng.Intn(200)) * time.Millisecond)
					}
				case "disconnector":
					if c.prev > uint64(10+crng.Intn(50)) {
						s.Hub.Unsubscribe(sub)
						return
					}
				case "reconnector":
					if c.resumes < 3 && c.prev > uint64(20*(c.resumes+1)) {
						// Drop the connection, keep Last-Event-ID, and
						// resume — sometimes after sleeping long enough
						// to fall out of the delta window.
						s.Hub.Unsubscribe(sub)
						if crng.Intn(2) == 0 {
							time.Sleep(time.Duration(50+crng.Intn(150)) * time.Millisecond)
						}
						var err error
						sub, err = s.Hub.Subscribe(c.prev)
						if err == ErrClosed {
							// The hub shut down while this client was
							// between connections: a clean disconnect.
							c.closedEarly = true
							return
						}
						if err != nil {
							c.failf("resume: %v", err)
							return
						}
						c.resumes++
					}
				}
			}
		}(c, seed)
	}

	if err := <-pubDone; err != nil {
		t.Fatalf("publisher: %v", err)
	}
	hoard := &chaosClient{id: clients, behavior: "hoarder"}
	snaps, hoardDropped, _ := hoarder.Take(nil)
	hoard.consume(snaps, hoardDropped)
	// Publisher done; hub still serves terminal state. Shut it down so
	// every client drains its final ring and exits.
	s.Hub.Close()
	wg.Wait()

	rep := s.Report()
	if rep.Events == 0 || rep.Errors != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if hoardDropped == 0 {
		t.Fatalf("hoarder never overflowed its ring over %d snapshots", rep.FinalSeq)
	}
	all = append(all, hoard)
	// "Never blocks on a client": with thousands of stalled and slow
	// rings in play, a publish is still just pointer pushes — even under
	// the race detector a tick must come nowhere near seconds.
	if rep.Max > 5*time.Second {
		t.Fatalf("publisher stalled: max tick latency %v", rep.Max)
	}
	for _, c := range all {
		if msg := c.fails.Load(); msg != nil {
			t.Fatal(msg)
		}
		if c.behavior != "disconnector" && !c.closedEarly && c.prev != rep.FinalSeq {
			t.Fatalf("client %d (%s) ended at seq %d, final is %d",
				c.id, c.behavior, c.prev, rep.FinalSeq)
		}
	}

	// The flight recorder is the run's black box: a subscriber drop burst
	// must leave a sub_drop event exactly when viva_stream_dropped_total
	// moved, and every shed the report counts must leave a shed event
	// behind. The ring may have wrapped, so count by kind over what
	// survived, and only demand an event when nothing was overwritten.
	flightKinds := make(map[string]int)
	for _, ev := range obs.Flight.Snapshot(0) {
		if ev.Seq > flightBase {
			flightKinds[ev.Kind]++
		}
	}
	recorded := obs.Flight.Seq() - flightBase
	if recorded == 0 {
		t.Fatal("chaos run recorded no flight events")
	}
	wrapped := recorded > uint64(obs.Flight.Len())
	dropped := obsDropped.Value() - dropBase
	if flightKinds["sub_drop"] > 0 && dropped == 0 {
		t.Fatalf("flight ring has %d sub_drop events but viva_stream_dropped_total did not move", flightKinds["sub_drop"])
	}
	if dropped > 0 && flightKinds["sub_drop"] == 0 && !wrapped {
		t.Fatalf("subscribers dropped %d frames but no sub_drop events in flight ring: %v", dropped, flightKinds)
	}
	if rep.Sheds > 0 && flightKinds["shed"] == 0 && !wrapped {
		t.Fatalf("report counts %d sheds but flight ring has none: %v", rep.Sheds, flightKinds)
	}

	// Byte identity: the streamed trace is exactly the cold trace.
	var want, got bytes.Buffer
	if err := trace.Write(&want, cold); err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(&got, s.Trace()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("live trace differs from cold load after chaos run")
	}

	// Bounded memory: snapshots are shared references; per-client state
	// is a fixed ring. The whole run must fit comfortably under a flat
	// ceiling even at 5k clients.
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 256<<20 {
		t.Fatalf("heap grew %d MB over the chaos run", grew>>20)
	}
}
