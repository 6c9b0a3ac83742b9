package stream

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// BenchmarkStreamFanout measures the broadcast layer at the scales the
// acceptance criteria name: publish latency and delivery throughput with
// 1k, 5k and 10k live subscribers, each drained by its own goroutine.
// The custom metrics feed scripts/bench.sh's BENCH_stream.json:
// p99-push-ms is the 99th-percentile latency of one Publish (the
// publisher-side cost of a tick's fan-out), events/sec is snapshot
// deliveries per wall second across all clients.
func BenchmarkStreamFanout(b *testing.B) {
	for _, clients := range []int{1000, 5000, 10000} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			h := NewHub(clients+1, 16, 64)
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				sub, err := h.Subscribe(0)
				if err != nil {
					b.Fatal(err)
				}
				wg.Add(1)
				go func(sub *Subscriber) {
					defer wg.Done()
					var buf []*Snapshot
					for range sub.Notify() {
						snaps, _, _ := sub.Take(buf)
						buf = snaps[:0]
					}
					// Notify closed: drain whatever is left.
					sub.Take(buf)
				}(sub)
			}
			// A realistic per-tick delta payload, shared by reference.
			// Each iteration publishes a burst so even a -benchtime=1x
			// smoke run yields enough samples for a stable p99.
			const burst = 400
			data := bytes.Repeat([]byte(`{"m":1}`), 300)
			lat := make([]time.Duration, 0, b.N*burst)
			seq := uint64(0)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for j := 0; j < burst; j++ {
					seq++
					t0 := time.Now()
					h.Publish(&Snapshot{Seq: seq, Data: data})
					lat = append(lat, time.Since(t0))
				}
			}
			elapsed := time.Since(start)
			b.StopTimer()
			h.Close()
			wg.Wait()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			p99 := lat[len(lat)*99/100%len(lat)]
			b.ReportMetric(float64(p99.Nanoseconds())/1e6, "p99-push-ms")
			b.ReportMetric(float64(len(lat))*float64(clients)/elapsed.Seconds(), "events/sec")
		})
	}
}

// BenchmarkPublisherTick measures one publisher tick over a prepared
// batch: apply 200 ops, advance the incremental window, encode the delta
// (and, every FullEvery-th tick, the full frame) and publish, with no
// subscribers. The batches are consecutive slices of a 32-host replay;
// when they run out, a fresh stream is built off the clock.
func BenchmarkPublisherTick(b *testing.B) {
	cold := buildCold(b, 32, 20000, 9)
	var ops []Op
	if err := NewReplay(cold, 0).Run(context.Background(), func(op Op) error {
		ops = append(ops, op)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	const batch = 200
	var s *Stream
	next := len(ops)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next+batch > len(ops) {
			b.StopTimer()
			var err error
			if s, err = New(NewReplay(cold, 0), Config{}); err != nil {
				b.Fatal(err)
			}
			next = 0
			b.StartTimer()
		}
		s.tick(ops[next:next+batch], false, 0)
		next += batch
	}
}
