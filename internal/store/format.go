// Package store is the out-of-core columnar trace store: an on-disk
// binary format (.vvc) holding one column per (resource, metric) pair,
// split into fixed-size chunks of (time, value) points that carry their
// own precomputed cumulative-integral prefix sums and min/max, plus a
// footer with the resource/edge/state catalog and a chunk directory.
//
// The point is Equation 1 off disk: a windowed Integrate/Mean touches at
// most the two boundary chunks of the window (interior chunks answer
// from the directory's precomputed sums without being read at all), and
// Max/Min read only boundary chunks (interior chunks answer from their
// directory min/max). Reads go through pread on the open file and a
// bounded LRU chunk cache shared per store, so serving interactive
// scrubbing over an arbitrarily large trace needs resident heap
// proportional to the cache, not the trace.
//
// # File layout
//
//	magic "VVC1"
//	chunk blob*          (per-column chunks, interleaved in flush order)
//	footer               (catalog + chunk directory, see below)
//	footerLen u64 | crc32(footer) u32 | magic "VVC1"     (16-byte trailer)
//
// Every fixed-width integer and float is little-endian; variable-width
// integers are uvarints. A chunk blob is the raw concatenation
// times[count] ++ values[count] ++ prefix[count] (float64 each, so
// 24*count bytes), optionally flate-compressed when that makes it
// smaller. prefix[i] is the ABSOLUTE cumulative integral of the column's
// step function up to point i, computed by trace.IntegralAt as the
// in-heap timeline computes it, and every query is answered by the same
// trace.Column kernel on both sides — which is what makes store-backed
// query results bit-identical to heap-backed ones.
//
// The footer holds: the resource catalog (name/type/parent, declaration
// order), topology edges (resource indices), per-resource state events
// (states are footer-resident: they are a small behavioural annotation,
// not a column — a deliberate scope limit), the observation-window end,
// and the column directory: per column the resource index, metric name
// and per-chunk metadata (offset, compressed/uncompressed length,
// encoding, point count, first/last time, last value, first/last prefix,
// min/max value).
package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"viva/internal/trace"
)

// Magic identifies a columnar trace file; it both opens the file and
// closes the trailer.
const Magic = "VVC1"

// trailerSize is the fixed byte length of the end-of-file trailer:
// footerLen u64 + crc32 u32 + magic.
const trailerSize = 8 + 4 + 4

// Chunk encodings.
const (
	encRaw   = 0 // times ++ values ++ prefix, raw little-endian float64s
	encFlate = 1 // the same bytes, DEFLATE-compressed
)

// DefaultChunkPoints is the default number of points per chunk, the
// heap index's chunk size.
const DefaultChunkPoints = trace.DefaultChunkPoints

// IsColumnar reports whether head starts a .vvc columnar trace file.
func IsColumnar(head []byte) bool {
	return len(head) >= len(Magic) && string(head[:len(Magic)]) == Magic
}

// blobRef locates and decodes one chunk blob. Together with the chunk's
// trace.ChunkMeta it is one directory entry: everything needed to read
// the chunk, or, for windows that cover it entirely, to answer from it
// without touching the blob.
type blobRef struct {
	off  uint64 // blob offset from file start
	clen uint32 // stored (possibly compressed) length
	ulen uint32 // raw length, 24*count
	enc  uint8
}

// column is one (resource, metric) directory entry: the query directory
// the kernel reads and, index for index, where each chunk's blob lies.
type column struct {
	resource string
	metric   string
	dir      []trace.ChunkMeta
	blobs    []blobRef
}

// stateEvent mirrors trace state points in the footer.
type stateEvent struct {
	t     float64
	value string
}

// footer is the decoded catalog + directory.
type footer struct {
	resources []resourceDecl
	edges     [][2]uint32 // indices into resources
	states    map[uint32][]stateEvent
	end       float64
	cols      []column
}

type resourceDecl struct {
	name, typ, parent string
}

// --- encoding ---

type footerEncoder struct{ buf []byte }

func (e *footerEncoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *footerEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *footerEncoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// metaFloats lists a directory entry's float fields in footer order.
func metaFloats(m *trace.ChunkMeta) []*float64 {
	return []*float64{&m.FirstT, &m.LastT, &m.LastV, &m.PrefFirst, &m.PrefLast, &m.Min, &m.Max}
}

// encodeChunkPayload lays out times ++ values ++ prefix as raw
// little-endian float64s into dst (reused across flushes).
func encodeChunkPayload(dst []byte, times, values, prefix []float64) []byte {
	dst = dst[:0]
	for _, s := range [][]float64{times, values, prefix} {
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// --- decoding ---

// byteReader decodes the footer with bounds checks everywhere: corrupt
// or truncated input must surface as an error, never a panic.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) remaining() int { return len(r.b) - r.off }

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("store: corrupt uvarint at footer offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) str(maxLen int) (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(maxLen) || int(n) > r.remaining() {
		return "", fmt.Errorf("store: string length %d out of bounds at footer offset %d", n, r.off)
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *byteReader) f64() (float64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("store: truncated float at footer offset %d", r.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

// maxName bounds any single name in the catalog; far above anything the
// generators produce, low enough to reject corrupt lengths early.
const maxName = 1 << 16

// decodeFooter parses the footer bytes (CRC already verified by the
// caller). dataEnd is the offset where the footer begins, i.e. the
// exclusive upper bound for every chunk blob.
func decodeFooter(b []byte, dataEnd uint64) (*footer, error) {
	r := &byteReader{b: b}
	f := &footer{states: make(map[uint32][]stateEvent)}

	nRes, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each resource needs at least 3 length bytes; reject absurd counts
	// before allocating.
	if nRes > uint64(r.remaining()) {
		return nil, fmt.Errorf("store: resource count %d exceeds footer size", nRes)
	}
	f.resources = make([]resourceDecl, nRes)
	for i := range f.resources {
		if f.resources[i].name, err = r.str(maxName); err != nil {
			return nil, err
		}
		if f.resources[i].typ, err = r.str(maxName); err != nil {
			return nil, err
		}
		if f.resources[i].parent, err = r.str(maxName); err != nil {
			return nil, err
		}
	}

	nEdges, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nEdges > uint64(r.remaining()) {
		return nil, fmt.Errorf("store: edge count %d exceeds footer size", nEdges)
	}
	f.edges = make([][2]uint32, nEdges)
	for i := range f.edges {
		for j := 0; j < 2; j++ {
			idx, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if idx >= nRes {
				return nil, fmt.Errorf("store: edge resource index %d out of range", idx)
			}
			f.edges[i][j] = uint32(idx)
		}
	}

	nStateRes, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nStateRes > nRes {
		return nil, fmt.Errorf("store: stateful resource count %d exceeds resource count", nStateRes)
	}
	for i := uint64(0); i < nStateRes; i++ {
		idx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if idx >= nRes {
			return nil, fmt.Errorf("store: state resource index %d out of range", idx)
		}
		nPts, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nPts > uint64(r.remaining()) {
			return nil, fmt.Errorf("store: state point count %d exceeds footer size", nPts)
		}
		pts := make([]stateEvent, nPts)
		for j := range pts {
			if pts[j].t, err = r.f64(); err != nil {
				return nil, err
			}
			if pts[j].value, err = r.str(maxName); err != nil {
				return nil, err
			}
		}
		f.states[uint32(idx)] = pts
	}

	if f.end, err = r.f64(); err != nil {
		return nil, err
	}

	nCols, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nCols > uint64(r.remaining()) {
		return nil, fmt.Errorf("store: column count %d exceeds footer size", nCols)
	}
	f.cols = make([]column, nCols)
	for c := range f.cols {
		col := &f.cols[c]
		idx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if idx >= nRes {
			return nil, fmt.Errorf("store: column resource index %d out of range", idx)
		}
		col.resource = f.resources[idx].name
		if col.metric, err = r.str(maxName); err != nil {
			return nil, err
		}
		nChunks, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nChunks > uint64(r.remaining()) {
			return nil, fmt.Errorf("store: chunk count %d exceeds footer size", nChunks)
		}
		col.dir = make([]trace.ChunkMeta, nChunks)
		col.blobs = make([]blobRef, nChunks)
		for k := range col.dir {
			if err := decodeChunkMeta(r, &col.dir[k], &col.blobs[k], dataEnd); err != nil {
				return nil, err
			}
			if k > 0 && col.dir[k].FirstT <= col.dir[k-1].LastT {
				return nil, fmt.Errorf("store: column %s/%s chunk %d not time-ordered", col.resource, col.metric, k)
			}
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after footer", r.remaining())
	}
	return f, nil
}

func decodeChunkMeta(r *byteReader, m *trace.ChunkMeta, b *blobRef, dataEnd uint64) error {
	off, err := r.uvarint()
	if err != nil {
		return err
	}
	clen, err := r.uvarint()
	if err != nil {
		return err
	}
	ulen, err := r.uvarint()
	if err != nil {
		return err
	}
	enc, err := r.uvarint()
	if err != nil {
		return err
	}
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	if count == 0 || count > math.MaxUint32 || ulen != 24*count || ulen > math.MaxUint32 || clen > math.MaxUint32 {
		return fmt.Errorf("store: chunk count %d / raw length %d inconsistent", count, ulen)
	}
	if enc != encRaw && enc != encFlate {
		return fmt.Errorf("store: unknown chunk encoding %d", enc)
	}
	if clen == 0 || off < uint64(len(Magic)) || off+clen > dataEnd || off+clen < off {
		return fmt.Errorf("store: chunk [%d, +%d) outside data section", off, clen)
	}
	if enc == encRaw && clen != ulen {
		return fmt.Errorf("store: raw chunk stored length %d != %d", clen, ulen)
	}
	*b = blobRef{off: off, clen: uint32(clen), ulen: uint32(ulen), enc: uint8(enc)}
	m.Count = int(count)
	for _, dst := range metaFloats(m) {
		if *dst, err = r.f64(); err != nil {
			return err
		}
	}
	if m.Count > 1 && m.LastT < m.FirstT {
		return fmt.Errorf("store: chunk times inverted (%g > %g)", m.FirstT, m.LastT)
	}
	return nil
}
