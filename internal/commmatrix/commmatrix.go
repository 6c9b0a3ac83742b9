// Package commmatrix implements the communication-matrix view, another
// classical technique from the paper's related work (Section 2.2,
// "communication matrices, implemented in Vampir and others"): a square
// heatmap of bytes exchanged per (sender, receiver) pair. Like the
// topology-based view it supports spatial aggregation — rows and columns
// can be grouped by cluster or site — but unlike it, it cannot show where
// on the network the traffic actually flows, which is exactly the gap the
// paper's contribution fills.
package commmatrix

import (
	"bytes"
	"fmt"
	"html"
	"math"
	"sort"
)

// Matrix is a directed communication matrix: Bytes[i][j] is the volume
// sent by Names[i] to Names[j].
type Matrix struct {
	Names []string
	Bytes [][]float64
	index map[string]int
}

// New creates an empty matrix over the given entity names (order defines
// row/column order). Duplicate names panic.
func New(names []string) *Matrix {
	m := &Matrix{
		Names: append([]string(nil), names...),
		Bytes: make([][]float64, len(names)),
		index: make(map[string]int, len(names)),
	}
	for i, n := range names {
		if _, dup := m.index[n]; dup {
			panic(fmt.Sprintf("commmatrix: duplicate name %q", n))
		}
		m.index[n] = i
		m.Bytes[i] = make([]float64, len(names))
	}
	return m
}

// Add accumulates bytes from src to dst. Unknown endpoints are ignored
// and reported via the return value.
func (m *Matrix) Add(src, dst string, bytes float64) bool {
	i, ok1 := m.index[src]
	j, ok2 := m.index[dst]
	if !ok1 || !ok2 {
		return false
	}
	m.Bytes[i][j] += bytes
	return true
}

// Total returns the sum of all cells.
func (m *Matrix) Total() float64 {
	var sum float64
	for _, row := range m.Bytes {
		for _, v := range row {
			sum += v
		}
	}
	return sum
}

// Max returns the largest cell value.
func (m *Matrix) Max() float64 {
	var max float64
	for _, row := range m.Bytes {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	return max
}

// GroupBy aggregates rows and columns through a name→group mapping — the
// communication matrix's version of the paper's spatial aggregation.
// Group order follows the first appearance of each group.
func (m *Matrix) GroupBy(groupOf func(name string) string) *Matrix {
	var groups []string
	seen := make(map[string]bool)
	for _, n := range m.Names {
		g := groupOf(n)
		if !seen[g] {
			seen[g] = true
			groups = append(groups, g)
		}
	}
	out := New(groups)
	for i, src := range m.Names {
		for j, dst := range m.Names {
			if v := m.Bytes[i][j]; v != 0 {
				out.Add(groupOf(src), groupOf(dst), v)
			}
		}
	}
	return out
}

// TopPairs returns the k heaviest (src, dst, bytes) triples, sorted by
// decreasing volume (ties broken by name for determinism).
func (m *Matrix) TopPairs(k int) []Pair {
	var all []Pair
	for i, src := range m.Names {
		for j, dst := range m.Names {
			if v := m.Bytes[i][j]; v > 0 {
				all = append(all, Pair{Src: src, Dst: dst, Bytes: v})
			}
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Bytes != all[b].Bytes {
			return all[a].Bytes > all[b].Bytes
		}
		if all[a].Src != all[b].Src {
			return all[a].Src < all[b].Src
		}
		return all[a].Dst < all[b].Dst
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// Pair is one directed traffic volume.
type Pair struct {
	Src, Dst string
	Bytes    float64
}

// SVGOptions tune the heatmap rendering.
type SVGOptions struct {
	CellSize int
	Title    string
	// LogScale colors cells by log(bytes), which keeps small flows
	// visible next to dominant ones.
	LogScale bool
}

// SVG renders the matrix as a heatmap with row/column labels.
func (m *Matrix) SVG(opts SVGOptions) []byte {
	cell := opts.CellSize
	if cell <= 0 {
		cell = 14
	}
	labelPad := 10
	for _, n := range m.Names {
		if l := len(n)*7 + 8; l > labelPad {
			labelPad = l
		}
	}
	topPad := labelPad
	if opts.Title != "" {
		topPad += 18
	}
	n := len(m.Names)
	w := labelPad + n*cell + 10
	h := topPad + n*cell + 10

	max := m.Max()
	intensity := func(v float64) float64 {
		if v <= 0 || max <= 0 {
			return 0
		}
		if opts.LogScale {
			return math.Log1p(v) / math.Log1p(max)
		}
		return v / max
	}

	var buf bytes.Buffer
	fmt.Fprintf(&buf, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, w, h, w, h)
	buf.WriteByte('\n')
	fmt.Fprintf(&buf, `<rect width="%d" height="%d" fill="#ffffff"/>`, w, h)
	buf.WriteByte('\n')
	if opts.Title != "" {
		fmt.Fprintf(&buf, `<text x="8" y="14" font-size="12" font-family="sans-serif" fill="#222">%s</text>`,
			html.EscapeString(opts.Title))
		buf.WriteByte('\n')
	}
	for i, name := range m.Names {
		// Row label.
		fmt.Fprintf(&buf, `<text x="%d" y="%d" font-size="9" text-anchor="end" font-family="monospace" fill="#333">%s</text>`,
			labelPad-4, topPad+i*cell+cell-3, html.EscapeString(name))
		buf.WriteByte('\n')
		// Column label, rotated.
		cx := labelPad + i*cell + cell/2
		fmt.Fprintf(&buf, `<text x="%d" y="%d" font-size="9" font-family="monospace" fill="#333" transform="rotate(-60 %d %d)">%s</text>`,
			cx, topPad-4, cx, topPad-4, html.EscapeString(name))
		buf.WriteByte('\n')
	}
	for i := range m.Names {
		for j := range m.Names {
			v := m.Bytes[i][j]
			it := intensity(v)
			// White → deep red ramp.
			r := 255
			g := int(240 * (1 - it))
			bl := int(230 * (1 - it))
			fmt.Fprintf(&buf, `<rect x="%d" y="%d" width="%d" height="%d" fill="rgb(%d,%d,%d)" stroke="#ddd" stroke-width="0.5"><title>%s -> %s: %.3g bytes</title></rect>`,
				labelPad+j*cell, topPad+i*cell, cell, cell, r, g, bl,
				html.EscapeString(m.Names[i]), html.EscapeString(m.Names[j]), v)
			buf.WriteByte('\n')
		}
	}
	buf.WriteString("</svg>\n")
	return buf.Bytes()
}
