package store

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"viva/internal/ingest"
	"viva/internal/obs"
	"viva/internal/paje"
	"viva/internal/trace"
)

// Compaction observability: the span times whole compactions; the
// counters let MB/s be derived from any sink that samples /metrics.
var (
	obsCompactChunks = obs.Default.Counter("viva_store_compact_chunks_total",
		"Chunks flushed by columnar store writers.")
	obsCompactBytes = obs.Default.Counter("viva_store_compact_bytes_total",
		"Chunk bytes (after compression) written by columnar store writers.")
	obsCompactEvents = obs.Default.Counter("viva_store_compact_events_total",
		"Metric points streamed into columnar store writers.")
)

// ErrOutOfOrder reports a metric event earlier than its column's last
// point. The streaming writer computes prefix sums left to right and
// flushes closed chunks, so it cannot insert into the past; callers fall
// back to materializing the trace in heap (WriteTrace), which CompactFile
// does automatically.
var ErrOutOfOrder = errors.New("store: out-of-order event")

// WriterOptions tune the streaming writer.
type WriterOptions struct {
	// ChunkPoints is the number of points per chunk (DefaultChunkPoints
	// when 0). Smaller chunks mean finer-grained reads and a bigger
	// directory; larger chunks compress better but cost more per
	// boundary-chunk decode.
	ChunkPoints int
}

type colKey struct{ resource, metric string }

// colState buffers one column's open chunk. A full chunk is flushed
// only when a strictly later point arrives, so an equal-time overwrite of
// the last point, which the trace model allows, always lands in the
// buffer, never in a flushed chunk: the heap timeline's rule, which keeps
// the two directories identical.
type colState struct {
	resource, metric      string
	times, values, prefix []float64 // the open chunk
	// last is the column's last point and its prefix, which the next
	// point's prefix is computed from; n counts the points so far.
	lastT, lastV, lastPref float64
	n                      int
	chunks                 []chunkEntry
}

// chunkEntry is one closed chunk's footer directory entry.
type chunkEntry struct {
	meta trace.ChunkMeta
	blob blobRef
}

// Writer streams a trace into the columnar format. Memory stays
// O(columns × ChunkPoints) plus the catalog — never the full trace.
// Events must be time-ordered per column (ErrOutOfOrder otherwise); the
// catalog, states and directory live in the footer written by Close.
type Writer struct {
	w    *bufio.Writer
	off  uint64
	opts WriterOptions

	cat      *trace.Trace // resources, edges, states, end
	declared map[string]bool
	cols     map[colKey]*colState
	colOrder []*colState
	end      float64

	payload []byte // reused chunk encode buffer
	cbuf    bytes.Buffer
	flt     *flate.Writer

	closed bool
}

// NewWriter starts a columnar file on w (the magic is written
// immediately). Close finishes it; nothing is seekable, so the writer
// never revisits written bytes.
func NewWriter(w io.Writer, opts WriterOptions) (*Writer, error) {
	if opts.ChunkPoints <= 0 {
		opts.ChunkPoints = DefaultChunkPoints
	}
	bw := bufio.NewWriterSize(w, 256<<10)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	flt, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	return &Writer{
		w:        bw,
		off:      uint64(len(Magic)),
		opts:     opts,
		cat:      trace.New(),
		declared: make(map[string]bool),
		cols:     make(map[colKey]*colState),
		flt:      flt,
	}, nil
}

// DeclareResource mirrors trace.Trace.DeclareResource.
func (w *Writer) DeclareResource(name, typ, parent string) error {
	if err := w.cat.DeclareResource(name, typ, parent); err != nil {
		return err
	}
	w.declared[name] = true
	return nil
}

// DeclareEdge mirrors trace.Trace.DeclareEdge.
func (w *Writer) DeclareEdge(a, b string) error { return w.cat.DeclareEdge(a, b) }

// SetState mirrors trace.Trace.SetState; states are footer-resident.
func (w *Writer) SetState(t float64, resource, value string) error {
	return w.cat.SetState(t, resource, value)
}

// SetEnd extends the observation window to at least t.
func (w *Writer) SetEnd(t float64) {
	if t > w.end {
		w.end = t
	}
}

// Apply performs one trace op, as trace.Appender.Apply does on the heap.
func (w *Writer) Apply(op trace.Op) error {
	switch op.Kind {
	case trace.OpSet:
		return w.Set(op.T, op.Resource, op.Metric, op.Value)
	case trace.OpAdd:
		return w.Add(op.T, op.Resource, op.Metric, op.Value)
	case trace.OpState:
		return w.SetState(op.T, op.Resource, op.Aux)
	case trace.OpDeclare:
		return w.DeclareResource(op.Resource, op.Metric, op.Aux)
	case trace.OpEdge:
		return w.DeclareEdge(op.Resource, op.Aux)
	case trace.OpEnd:
		w.SetEnd(op.T)
		return nil
	}
	return fmt.Errorf("store: unknown op kind %d", op.Kind)
}

func (w *Writer) col(resource, metric string) (*colState, error) {
	if !w.declared[resource] {
		return nil, fmt.Errorf("store: event on undeclared resource %q", resource)
	}
	if metric == "" {
		return nil, fmt.Errorf("store: empty metric name on resource %q", resource)
	}
	k := colKey{resource, metric}
	c, ok := w.cols[k]
	if !ok {
		c = &colState{resource: resource, metric: metric}
		w.cols[k] = c
		w.colOrder = append(w.colOrder, c)
	}
	return c, nil
}

// Set records metric = v on the resource from time t on. Events must be
// time-ordered within each column: a t earlier than the column's last
// point returns ErrOutOfOrder (equal t overwrites the last value, like
// the in-heap trace).
func (w *Writer) Set(t float64, resource, metric string, v float64) error {
	c, err := w.col(resource, metric)
	if err != nil {
		return err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("store: non-finite value for %s/%s at t=%g", resource, metric, t)
	}
	obsCompactEvents.Inc()
	switch {
	case c.n == 0 || t > c.lastT:
		// The heap timeline's recurrence, so prefix values, and every
		// Integrate derived from them, are bit-identical between store
		// and heap.
		pref := 0.0
		if c.n > 0 {
			pref = trace.IntegralAt(c.lastPref, c.lastV, c.lastT, t)
		}
		if len(c.times) == w.opts.ChunkPoints {
			if err := w.flush(c); err != nil {
				return err
			}
		}
		c.times = append(c.times, t)
		c.values = append(c.values, v)
		c.prefix = append(c.prefix, pref)
		c.lastT, c.lastV, c.lastPref = t, v, pref
		c.n++
	case t == c.lastT:
		c.values[len(c.values)-1] = v
		c.lastV = v
	default:
		return fmt.Errorf("%w: %s/%s at t=%g after t=%g", ErrOutOfOrder, resource, metric, t, c.lastT)
	}
	if t > w.end {
		w.end = t
	}
	return nil
}

// Add records metric += dv from time t on (the counter idiom of flow
// starts and ends).
func (w *Writer) Add(t float64, resource, metric string, dv float64) error {
	c, err := w.col(resource, metric)
	if err != nil {
		return err
	}
	if c.n > 0 && t < c.lastT {
		return fmt.Errorf("%w: %s/%s at t=%g after t=%g", ErrOutOfOrder, resource, metric, t, c.lastT)
	}
	return w.Set(t, resource, metric, c.lastV+dv)
}

// flush writes the buffered chunk out: encode, compress if that helps,
// write, record the directory entry.
func (w *Writer) flush(c *colState) error {
	n := len(c.times)
	meta := trace.Chunk{Times: c.times, Values: c.values, Prefix: c.prefix}.Meta()
	w.payload = encodeChunkPayload(w.payload, c.times, c.values, c.prefix)

	enc := uint8(encRaw)
	out := w.payload
	w.cbuf.Reset()
	w.flt.Reset(&w.cbuf)
	if _, err := w.flt.Write(w.payload); err != nil {
		return err
	}
	if err := w.flt.Close(); err != nil {
		return err
	}
	if w.cbuf.Len() < len(w.payload) {
		enc = encFlate
		out = w.cbuf.Bytes()
	}

	c.chunks = append(c.chunks, chunkEntry{meta, blobRef{off: w.off, clen: uint32(len(out)), ulen: uint32(24 * n), enc: enc}})
	if _, err := w.w.Write(out); err != nil {
		return err
	}
	w.off += uint64(len(out))
	obsCompactChunks.Inc()
	obsCompactBytes.Add(uint64(len(out)))
	c.times, c.values, c.prefix = c.times[:0], c.values[:0], c.prefix[:0]
	return nil
}

// Close flushes every open chunk, writes the footer and trailer, and
// finishes the file. The destination is not closed (the Writer does not
// own it).
func (w *Writer) Close() error {
	if w.closed {
		return errors.New("store: writer already closed")
	}
	w.closed = true
	for _, c := range w.colOrder {
		if len(c.times) > 0 {
			if err := w.flush(c); err != nil {
				return err
			}
		}
	}

	w.cat.SetEnd(w.end)
	resources := w.cat.Resources()
	resIdx := make(map[string]uint64, len(resources))
	for i, r := range resources {
		resIdx[r.Name] = uint64(i)
	}

	e := &footerEncoder{}
	e.uvarint(uint64(len(resources)))
	for _, r := range resources {
		e.str(r.Name)
		e.str(r.Type)
		e.str(r.Parent)
	}
	edges := w.cat.Edges()
	e.uvarint(uint64(len(edges)))
	for _, ed := range edges {
		e.uvarint(resIdx[ed.A])
		e.uvarint(resIdx[ed.B])
	}
	stateful := w.cat.StatefulResources()
	e.uvarint(uint64(len(stateful)))
	for _, name := range stateful {
		pts := w.cat.StatePoints(name)
		e.uvarint(resIdx[name])
		e.uvarint(uint64(len(pts)))
		for _, p := range pts {
			e.f64(p.T)
			e.str(p.Value)
		}
	}
	_, end := w.cat.Window()
	e.f64(end)
	e.uvarint(uint64(len(w.colOrder)))
	for _, c := range w.colOrder {
		e.uvarint(resIdx[c.resource])
		e.str(c.metric)
		e.uvarint(uint64(len(c.chunks)))
		for i := range c.chunks {
			ch := &c.chunks[i]
			e.uvarint(ch.blob.off)
			e.uvarint(uint64(ch.blob.clen))
			e.uvarint(uint64(ch.blob.ulen))
			e.uvarint(uint64(ch.blob.enc))
			e.uvarint(uint64(ch.meta.Count))
			for _, v := range metaFloats(&ch.meta) {
				e.f64(*v)
			}
		}
	}

	if _, err := w.w.Write(e.buf); err != nil {
		return err
	}
	var trailer [trailerSize]byte
	binary.LittleEndian.PutUint64(trailer[0:], uint64(len(e.buf)))
	binary.LittleEndian.PutUint32(trailer[8:], crc32.ChecksumIEEE(e.buf))
	copy(trailer[12:], Magic)
	if _, err := w.w.Write(trailer[:]); err != nil {
		return err
	}
	return w.w.Flush()
}

// WriteTrace serialises a fully materialized in-heap trace. Per-column
// points are already time-ordered, so this never hits ErrOutOfOrder.
func WriteTrace(out io.Writer, tr *trace.Trace, opts WriterOptions) error {
	w, err := NewWriter(out, opts)
	if err != nil {
		return err
	}
	for _, r := range tr.Resources() {
		if err := w.DeclareResource(r.Name, r.Type, r.Parent); err != nil {
			return err
		}
	}
	for _, e := range tr.Edges() {
		if err := w.DeclareEdge(e.A, e.B); err != nil {
			return err
		}
	}
	for _, r := range tr.Resources() {
		for _, metric := range tr.MetricsOf(r.Name) {
			for _, p := range tr.Timeline(r.Name, metric).Points() {
				if err := w.Set(p.T, r.Name, metric, p.V); err != nil {
					return err
				}
			}
		}
		for _, sp := range tr.StatePoints(r.Name) {
			if err := w.SetState(sp.T, r.Name, sp.Value); err != nil {
				return err
			}
		}
	}
	_, end := tr.Window()
	w.SetEnd(end)
	return w.Close()
}

// CompactFile converts a trace file (native or Paje, optionally
// gzipped) into a columnar .vvc file. The input is sniffed once. Native
// traces stream straight from the ingest scanner into the writer — peak
// memory is O(columns × ChunkPoints), never the trace — with one
// automatic fallback: events that go back in time within a column (legal
// in the heap model, rare in practice) force a second pass that
// materializes the trace first. Paje traces (the Paje applier needs
// random access to its container state) and .vvc inputs are always
// materialized. The whole conversion runs under an obs StageCompact span.
func CompactFile(src, dst string, iopt ingest.Options, wopt WriterOptions) error {
	sp := obs.StartSpan(obs.StageCompact)
	defer sp.End()

	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	br, head, err := ingest.Unwrap(in)
	if err != nil {
		return err
	}
	var tr *trace.Trace
	switch {
	case IsColumnar(head):
		st, serr := Open(src)
		if serr != nil {
			return serr
		}
		defer st.Close()
		tr, err = st.ReadAll()
	case ingest.IsPaje(head):
		tr, err = paje.ReadWith(br, iopt)
	default:
		err = create(dst, func(out io.Writer) error { return compactNative(br, out, iopt, wopt) })
		if !errors.Is(err, ErrOutOfOrder) {
			return err
		}
		if _, err = in.Seek(0, io.SeekStart); err != nil {
			return err
		}
		if br, _, err = ingest.Unwrap(in); err != nil {
			return err
		}
		tr, err = trace.ReadWith(br, iopt)
	}
	if err != nil {
		return err
	}
	return create(dst, func(out io.Writer) error { return WriteTrace(out, tr, wopt) })
}

// compactNative streams a native trace into a columnar file on out:
// every directive goes through trace.ParseOp into Writer.Apply.
func compactNative(r io.Reader, out io.Writer, iopt ingest.Options, wopt WriterOptions) error {
	w, err := NewWriter(out, wopt)
	if err != nil {
		return err
	}
	events, err := trace.ScanOps(r, iopt, w.Apply)
	if err != nil {
		return err
	}
	ingest.Events.Add(uint64(events))
	return w.Close()
}

// create writes the file at path through write, closing it after.
func create(path string, write func(io.Writer) error) (err error) {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}()
	return write(out)
}
