package store

import (
	"bytes"
	"compress/flate"
	"container/list"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"viva/internal/obs"
	"viva/internal/trace"
)

// Chunk-cache observability: the hit ratio tells whether the cache is
// sized for the access pattern (scrubbing revisits boundary chunks
// constantly); evictions against a low hit rate mean thrashing.
var (
	obsCacheHits = obs.Default.Counter("viva_store_chunk_cache_hits_total",
		"Chunk-cache lookups answered without touching the file.")
	obsCacheMisses = obs.Default.Counter("viva_store_chunk_cache_misses_total",
		"Chunk-cache lookups that read and decoded a chunk from disk.")
	obsCacheEvictions = obs.Default.Counter("viva_store_chunk_cache_evictions_total",
		"Chunks evicted from the bounded cache to stay under its byte budget.")
	obsCacheBytes = obs.Default.Gauge("viva_store_chunk_cache_bytes",
		"Decoded bytes currently resident in the (most recently used) store's chunk cache.")
)

// DefaultCacheBytes bounds the decoded chunks a store keeps resident:
// 4 MiB ≈ 170 chunks of DefaultChunkPoints — plenty for the boundary
// chunks of interactive scrubbing, a rounding error next to a large
// trace.
const DefaultCacheBytes = 4 << 20

type cacheKey struct{ col, chunk int }

// cacheEntry holds one decoded chunk, immutable once decoded and shared
// by every reader that hits the cache.
type cacheEntry struct {
	key   cacheKey
	data  trace.Chunk
	bytes int64
}

// chunkCache is a byte-bounded LRU over decoded chunks, one per open
// store. Lookups are mutex-protected; the read+decode of a miss runs
// outside the lock (file ReadAt is pread, concurrent-safe), so parallel
// readers miss independently and the first insert wins.
type chunkCache struct {
	readAt  io.ReaderAt
	maxB    int64
	hits    atomic.Int64 // per-store mirrors of the global counters
	misses  atomic.Int64
	mu      sync.Mutex
	size    int64
	ll      *list.List // front = most recently used
	entries map[cacheKey]*list.Element
}

func newChunkCache(r io.ReaderAt, maxBytes int64) *chunkCache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &chunkCache{
		readAt:  r,
		maxB:    maxBytes,
		ll:      list.New(),
		entries: make(map[cacheKey]*list.Element),
	}
}

// get returns the decoded chunk, from cache or disk.
func (c *chunkCache) get(col, chunk int, b *blobRef) (trace.Chunk, error) {
	key := cacheKey{col, chunk}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		obsCacheHits.Inc()
		c.hits.Add(1)
		return el.Value.(*cacheEntry).data, nil
	}
	c.mu.Unlock()
	obsCacheMisses.Inc()
	c.misses.Add(1)

	data, err := readChunk(c.readAt, b)
	if err != nil {
		return trace.Chunk{}, err
	}
	sz := int64(b.ulen)

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// A racing reader inserted the same chunk; share its copy.
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).data, nil
	}
	if sz > c.maxB {
		// Oversized chunk: serve it without caching rather than flushing
		// the whole cache for one query.
		return data, nil
	}
	evicted, freed := int64(0), int64(0)
	for c.size+sz > c.maxB {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.entries, ev.key)
		c.size -= ev.bytes
		obsCacheEvictions.Inc()
		evicted++
		freed += ev.bytes
	}
	if evicted > 0 {
		// One flight event per insert-that-evicted, not per chunk: an
		// eviction storm then reads as a run of events with rising counts
		// instead of flooding the ring.
		obs.Flight.Record(obs.FlightStoreEvict, 0, evicted, freed)
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, data: data, bytes: sz})
	c.size += sz
	obsCacheBytes.Set(float64(c.size))
	return data, nil
}

// readChunk preads and decodes one chunk blob.
func readChunk(r io.ReaderAt, b *blobRef) (trace.Chunk, error) {
	stored := make([]byte, b.clen)
	if _, err := r.ReadAt(stored, int64(b.off)); err != nil {
		return trace.Chunk{}, fmt.Errorf("store: reading chunk at %d: %w", b.off, err)
	}
	raw := stored
	if b.enc == encFlate {
		fr := flate.NewReader(bytes.NewReader(stored))
		raw = make([]byte, b.ulen)
		if _, err := io.ReadFull(fr, raw); err != nil {
			return trace.Chunk{}, fmt.Errorf("store: decompressing chunk at %d: %w", b.off, err)
		}
		// A corrupt stream may inflate past ulen; reject instead of
		// silently truncating.
		if n, _ := fr.Read(make([]byte, 1)); n != 0 {
			return trace.Chunk{}, fmt.Errorf("store: chunk at %d inflates past its declared size", b.off)
		}
	}
	if len(raw) != int(b.ulen) {
		return trace.Chunk{}, fmt.Errorf("store: chunk at %d has %d bytes, want %d", b.off, len(raw), b.ulen)
	}
	n := int(b.ulen) / 24
	all := make([]float64, 3*n)
	for i := range all {
		all[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return trace.Chunk{Times: all[:n:n], Values: all[n : 2*n : 2*n], Prefix: all[2*n:]}, nil
}
