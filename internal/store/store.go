package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"

	"viva/internal/obs"
	"viva/internal/trace"
)

// obsReadErrors counts chunk reads that failed after a successful Open —
// I/O faults or blob corruption the footer CRC cannot see. Queries
// degrade to 0 (the Series interface has no error channel); Store.Err
// holds the first failure.
var obsReadErrors = obs.Default.Counter("viva_store_read_errors_total",
	"Chunk reads that failed after Open (I/O fault or blob corruption).")

// Store is an open columnar trace file: the footer catalog resident in
// heap, every chunk on disk behind one bounded LRU cache. It satisfies
// aggregation.Source, so views and servers work off it exactly as off an
// in-heap trace, with resident memory O(cache), not O(trace).
//
// A Store is safe for concurrent readers. Close invalidates every Series
// obtained from it.
type Store struct {
	f     *os.File
	cat   *trace.Trace // resources, edges, states, end — no timelines
	foot  *footer
	cache *chunkCache
	start float64

	colIdx  map[colKey]int
	metrics []string

	errMu sync.Mutex
	err   error // first chunk-read error, sticky
}

// OpenOptions tune the read side.
type OpenOptions struct {
	// CacheBytes bounds the decoded chunks kept resident
	// (DefaultCacheBytes when 0).
	CacheBytes int64
}

// Open opens a .vvc file with default options.
func Open(path string) (*Store, error) { return OpenWith(path, OpenOptions{}) }

// OpenWith opens a .vvc file. The footer is read and validated (magic,
// CRC, directory bounds, hierarchy) before returning; chunk blobs are
// only touched by queries.
func OpenWith(path string, opts OpenOptions) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := open(f, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	return st, nil
}

func open(f *os.File, opts OpenOptions) (*Store, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < int64(len(Magic))+trailerSize {
		return nil, fmt.Errorf("store: file too short (%d bytes)", size)
	}
	var head [4]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return nil, err
	}
	if !IsColumnar(head[:]) {
		return nil, fmt.Errorf("store: bad magic %q", head)
	}
	var trailer [trailerSize]byte
	if _, err := f.ReadAt(trailer[:], size-trailerSize); err != nil {
		return nil, err
	}
	if string(trailer[12:16]) != Magic {
		return nil, fmt.Errorf("store: bad trailer magic")
	}
	footLen := binary.LittleEndian.Uint64(trailer[0:])
	wantCRC := binary.LittleEndian.Uint32(trailer[8:])
	maxFoot := uint64(size) - uint64(len(Magic)) - trailerSize
	if footLen > maxFoot {
		return nil, fmt.Errorf("store: footer length %d exceeds file", footLen)
	}
	footOff := uint64(size) - trailerSize - footLen
	footBytes := make([]byte, footLen)
	if _, err := io.ReadFull(io.NewSectionReader(f, int64(footOff), int64(footLen)), footBytes); err != nil {
		return nil, err
	}
	if got := crc32.ChecksumIEEE(footBytes); got != wantCRC {
		return nil, fmt.Errorf("store: footer CRC mismatch (%08x != %08x)", got, wantCRC)
	}
	foot, err := decodeFooter(footBytes, footOff)
	if err != nil {
		return nil, err
	}

	// Rebuild the catalog as a timeline-less trace: declaration order is
	// footer order, so parent-before-child and every other hierarchy
	// invariant is re-checked by the same code that enforces it in heap.
	cat := trace.New()
	for _, r := range foot.resources {
		if err := cat.DeclareResource(r.name, r.typ, r.parent); err != nil {
			return nil, err
		}
	}
	for _, e := range foot.edges {
		if err := cat.DeclareEdge(foot.resources[e[0]].name, foot.resources[e[1]].name); err != nil {
			return nil, err
		}
	}
	for idx, pts := range foot.states {
		name := foot.resources[idx].name
		for _, p := range pts {
			if err := cat.SetState(p.t, name, p.value); err != nil {
				return nil, err
			}
		}
	}
	cat.SetEnd(foot.end)

	st := &Store{
		f:      f,
		cat:    cat,
		foot:   foot,
		cache:  newChunkCache(f, opts.CacheBytes),
		colIdx: make(map[colKey]int, len(foot.cols)),
	}
	first := true
	seenMetric := make(map[string]bool)
	for i := range foot.cols {
		c := &foot.cols[i]
		key := colKey{c.resource, c.metric}
		if _, dup := st.colIdx[key]; dup {
			return nil, fmt.Errorf("store: duplicate column %s/%s", c.resource, c.metric)
		}
		if cat.Resource(c.resource) == nil {
			return nil, fmt.Errorf("store: column on unknown resource %q", c.resource)
		}
		st.colIdx[key] = i
		if !seenMetric[c.metric] {
			seenMetric[c.metric] = true
			st.metrics = append(st.metrics, c.metric)
		}
		if len(c.dir) > 0 && (first || c.dir[0].FirstT < st.start) {
			st.start = c.dir[0].FirstT
			first = false
		}
	}
	sort.Strings(st.metrics)
	return st, nil
}

// Close releases the file. Series obtained from the store must not be
// used afterwards.
func (s *Store) Close() error { return s.f.Close() }

// CacheStats reports this store's chunk-cache traffic: lookups served
// from memory, lookups that read the file, and the decoded bytes
// currently resident (always <= the configured budget).
func (s *Store) CacheStats() (hits, misses, resident int64) {
	c := s.cache
	c.mu.Lock()
	resident = c.size
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), resident
}

// Err returns the first chunk-read failure any query hit, or nil. Open
// validates the footer, but blob corruption or I/O faults only surface
// when a query touches the bad chunk; affected queries return 0.
func (s *Store) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

func (s *Store) fail(err error) {
	obsReadErrors.Inc()
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// --- aggregation.Source ---

// Validate checks the catalog's structural invariants.
func (s *Store) Validate() error { return s.cat.Validate() }

// Resources returns the catalog in declaration order (fresh copies).
func (s *Store) Resources() []*trace.Resource { return s.cat.Resources() }

// ResourcesOfType returns the resources of one type, in declaration
// order.
func (s *Store) ResourcesOfType(typ string) []*trace.Resource { return s.cat.ResourcesOfType(typ) }

// Resource returns a copy of the named resource, or nil.
func (s *Store) Resource(name string) *trace.Resource { return s.cat.Resource(name) }

// Edges returns the topology edges in declaration order.
func (s *Store) Edges() []trace.Edge { return s.cat.Edges() }

// Roots returns the names of parentless resources in declaration order.
func (s *Store) Roots() []string { return s.cat.Roots() }

// Children returns the names of the resources whose parent is name.
func (s *Store) Children(name string) []string { return s.cat.Children(name) }

// HasMetric reports whether the (resource, metric) column exists.
func (s *Store) HasMetric(resource, metric string) bool {
	_, ok := s.colIdx[colKey{resource, metric}]
	return ok
}

// Metrics returns the sorted metric names present in the store.
func (s *Store) Metrics() []string {
	out := make([]string, len(s.metrics))
	copy(out, s.metrics)
	return out
}

// MetricsOf returns the sorted metric names of one resource.
func (s *Store) MetricsOf(resource string) []string {
	var out []string
	for i := range s.foot.cols {
		if s.foot.cols[i].resource == resource {
			out = append(out, s.foot.cols[i].metric)
		}
	}
	sort.Strings(out)
	return out
}

// Window returns the observation window [start, end]: the earliest
// point of any column and the recorded end.
func (s *Store) Window() (start, end float64) { return s.start, s.foot.end }

// Series returns the (resource, metric) column as a Series answered by
// the trace.Column kernel over its footer directory, paging chunks
// through the store's cache; missing pairs yield an identically-zero
// series.
func (s *Store) Series(resource, metric string) trace.Series {
	i, ok := s.colIdx[colKey{resource, metric}]
	if !ok {
		return &trace.Timeline{}
	}
	return &columnSeries{s: s, col: i}
}

// columnSeries is one column's Series. The aggregation engine keeps the
// series of every member it resolves, so it stays two words and views
// the column through the kernel per query, on the stack.
type columnSeries struct {
	s   *Store
	col int
}

func (cs *columnSeries) kernel() trace.Column {
	return trace.NewColumn(cs.s.foot.cols[cs.col].dir, cs)
}

func (cs *columnSeries) At(t float64) float64           { k := cs.kernel(); return k.At(t) }
func (cs *columnSeries) Integrate(a, b float64) float64 { k := cs.kernel(); return k.Integrate(a, b) }
func (cs *columnSeries) Mean(a, b float64) float64      { k := cs.kernel(); return k.Mean(a, b) }
func (cs *columnSeries) Max(a, b float64) float64       { k := cs.kernel(); return k.Max(a, b) }
func (cs *columnSeries) Min(a, b float64) float64       { k := cs.kernel(); return k.Min(a, b) }
func (cs *columnSeries) FirstTime() float64             { k := cs.kernel(); return k.FirstTime() }
func (cs *columnSeries) LastTime() float64              { k := cs.kernel(); return k.LastTime() }
func (cs *columnSeries) Len() int                       { k := cs.kernel(); return k.Len() }

// LoadChunk fetches chunk k through the store's cache; on failure it
// records the error on the store and the query degrades to the implicit
// 0.
func (cs *columnSeries) LoadChunk(k int) (trace.Chunk, bool) {
	data, err := cs.s.cache.get(cs.col, k, &cs.s.foot.cols[cs.col].blobs[k])
	if err != nil {
		cs.s.fail(err)
		return trace.Chunk{}, false
	}
	return data, true
}

// --- state accessors (footer-resident) ---

// StateIntervals returns the resource's state spans clipped to [a, b].
func (s *Store) StateIntervals(resource string, a, b float64) []trace.StateInterval {
	return s.cat.StateIntervals(resource, a, b)
}

// StatefulResources returns the names of resources carrying states.
func (s *Store) StatefulResources() []string { return s.cat.StatefulResources() }

// ReadAll materializes the whole store as an in-heap trace — the
// transparent-load path of traceio, and the bridge back for tools that
// need mutation. It decompresses every chunk exactly once, bypassing
// the cache.
func (s *Store) ReadAll() (*trace.Trace, error) {
	tr := trace.New()
	for _, r := range s.cat.Resources() {
		if err := tr.DeclareResource(r.Name, r.Type, r.Parent); err != nil {
			return nil, err
		}
	}
	for _, e := range s.cat.Edges() {
		if err := tr.DeclareEdge(e.A, e.B); err != nil {
			return nil, err
		}
	}
	for i := range s.foot.cols {
		c := &s.foot.cols[i]
		for k := range c.blobs {
			data, err := readChunk(s.f, &c.blobs[k])
			if err != nil {
				return nil, err
			}
			for j, t := range data.Times {
				if err := tr.Set(t, c.resource, c.metric, data.Values[j]); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, name := range s.cat.StatefulResources() {
		for _, p := range s.cat.StatePoints(name) {
			if err := tr.SetState(p.T, name, p.Value); err != nil {
				return nil, err
			}
		}
	}
	_, end := s.cat.Window()
	tr.SetEnd(end)
	return tr, nil
}
