package server

import (
	"math"

	"viva/internal/aggregation"
	"viva/internal/layout"
	"viva/internal/vizgraph"
	"viva/internal/wire"
)

// The /api/graph payloads are appended field by field from the graph,
// the layout bodies and the tree (see package wire): no intermediate
// structs, no reflection. Field order and spelling are the wire format
// ui.go reads; an empty list is [], never null.
//
// A full payload whose graph has the structure token of the cached one
// (see vizgraph.Graph.Token: a slice scrub, a scale change, a drag) is
// written from the cached payload, its template: the edge list and each
// node's identity text are copied from it, and so is a node's position
// text when its body has neither moved nor changed its pin. Only the
// numbers the slice determines, and the segments, are encoded again.
// The bytes are those of an encode from scratch.

// nodeMark locates one node's reusable text in the payload it was
// written to: [head, headEnd) is `{"id":…,"size":` and [pos, posEnd) is
// `,"x":…,"leaf":…`, written for a body at x, y (their bits) and pinned.
// head < 0 marks a node that had no body and was left out.
type nodeMark struct {
	head, headEnd, pos, posEnd int32
	x, y                       uint64
	pinned                     bool
}

// encodeGraph writes the full /api/graph payload, moving being the last
// layout step's residual in render px:
//
//	{"nodes":[…],"edges":[…],"slice":[s,e],"window":[s,e],"params":{…},"moving":m}
//
// It uses the cached payload as its template when that payload was
// written for g's structure token, and records in s.marks and s.edgesAt
// where this payload's nodes and edge list lie; the caller makes it the
// template of the next frame by caching it with g's token in
// s.cacheToken.
func (s *Server) encodeGraph(g *vizgraph.Graph, tree *aggregation.Tree, moving float64) ([]byte, error) {
	var tmpl []byte
	if s.cache != nil && s.cacheToken == g.Token() {
		tmpl = s.cache
	}
	s.cacheToken = 0 // s.marks now describe the payload being written
	if len(s.marks) != len(g.Nodes) {
		s.marks = make([]nodeMark, len(g.Nodes))
	}
	e := s.newEncoder(s.graphLen)
	e.Raw(`{"nodes":`)
	s.appendNodes(e, tree, g.Nodes, s.marks, tmpl)
	e.Raw(`,"edges":`)
	at := int32(e.Len())
	if tmpl != nil {
		e.Copy(tmpl[s.edgesAt[0]:s.edgesAt[1]])
	} else {
		appendEdges(e, g.Edges)
	}
	s.edgesAt = [2]int32{at, int32(e.Len())}
	s.appendSliceWindow(e)
	e.Raw(`,"params":`)
	appendParams(e, s.view.Layout().Params())
	e.Raw(`,"moving":`).Float(moving)
	e.Raw("}")
	return finish(e, &s.graphLen)
}

// encodeLOD writes the level-of-detail payload: full-detail nodes inside
// the viewport, coarse hierarchy groups beyond, edges remapped onto both.
// Its size is bounded by the viewport content plus the hierarchy width at
// the LOD depth, independent of the total graph size.
//
//	{"nodes":[…],"groups":[…],"edges":[…],"depth":d,"slice":[s,e],"window":[s,e],"moving":m}
func (s *Server) encodeLOD(lod *vizgraph.LOD, tree *aggregation.Tree, moving float64) ([]byte, error) {
	e := s.newEncoder(s.lodLen)
	e.Raw(`{"nodes":`)
	s.appendNodes(e, tree, lod.Visible, nil, nil)
	e.Raw(`,"groups":[`)
	for i, lg := range lod.Groups {
		if i > 0 {
			e.Raw(",")
		}
		e.Raw(`{"id":`).String(lg.ID)
		e.Raw(`,"group":`).String(lg.Group)
		e.Raw(`,"type":`).String(lg.Type)
		e.Raw(`,"members":`).Int(lg.Members)
		e.Raw(`,"count":`).Int(lg.Count)
		e.Raw(`,"value":`).Float(lg.Value)
		e.Raw(`,"size":`).Float(lg.Size)
		e.Raw(`,"fill":`).Float(lg.Fill)
		e.Raw(`,"avail":`).Float(lg.Avail)
		e.Raw(`,"x":`).Float(lg.X)
		e.Raw(`,"y":`).Float(lg.Y)
		e.Raw("}")
	}
	e.Raw(`],"edges":`)
	appendEdges(e, lod.Edges)
	e.Raw(`,"depth":`).Int(lod.Depth)
	s.appendSliceWindow(e)
	e.Raw(`,"moving":`).Float(moving)
	e.Raw("}")
	return finish(e, &s.lodLen)
}

// newEncoder starts a payload in a fresh buffer sized from the previous
// payload of the same form (last), plus slack for numbers that run a
// few digits longer, so a frame normally fills one allocation. Its
// floats go through the server's memo. The buffer becomes the response,
// and the byte cache when the view is settled.
func (s *Server) newEncoder(last int) *wire.Encoder {
	return wire.NewMemoEncoder(make([]byte, 0, last+last/32+512), s.memo)
}

// finish returns the encoded payload and records its length in *last
// for the next frame of its form.
func finish(e *wire.Encoder, last *int) ([]byte, error) {
	body, err := e.Bytes()
	if err == nil {
		*last = len(body)
	}
	return body, err
}

// appendSliceWindow appends the time slice and the source's window.
func (s *Server) appendSliceWindow(e *wire.Encoder) {
	ts := s.view.TimeSlice()
	e.Raw(`,"slice":`).Pair(ts.Start, ts.End)
	ws, we := s.view.Source().Window()
	e.Raw(`,"window":`).Pair(ws, we)
}

// appendNodes appends the nodes that have a layout body. With marks (one
// per node) it records where each node's text lies, and with a template
// (whose marks those are) it copies what it can from there.
func (s *Server) appendNodes(e *wire.Encoder, tree *aggregation.Tree, nodes []*vizgraph.Node, marks []nodeMark, tmpl []byte) {
	lay := s.view.Layout()
	e.Raw("[")
	sep := ""
	var scratch nodeMark
	for i, n := range nodes {
		m := &scratch
		if marks != nil {
			m = &marks[i]
		}
		b := lay.Body(n.ID)
		if b == nil {
			m.head = -1
			continue
		}
		e.Raw(sep)
		appendNode(e, tree, n, b, m, tmpl)
		sep = ","
	}
	e.Raw("]")
}

// appendNode appends one visual node with its layout body, and updates
// its mark to where it was written. With a template, m must hold the
// node's mark in it: the identity text, and the position text of a body
// that kept its place and pin, are copied from there. Segments are
// omitted when the node has none.
func appendNode(e *wire.Encoder, tree *aggregation.Tree, n *vizgraph.Node, b *layout.Body, m *nodeMark, tmpl []byte) {
	old := *m
	reuse := tmpl != nil && old.head >= 0
	var tn *aggregation.TreeNode
	m.head = int32(e.Len())
	if reuse {
		e.Copy(tmpl[old.head:old.headEnd])
	} else {
		tn = tree.Node(n.Group)
		e.Raw(`{"id":`).String(n.ID)
		e.Raw(`,"group":`).String(n.Group)
		e.Raw(`,"parent":`).String(tn.Parent) // hierarchy parent of the group
		e.Raw(`,"type":`).String(n.Type)
		e.Raw(`,"label":`).String(n.Label)
		e.Raw(`,"shape":`).String(n.Shape.String())
		e.Raw(`,"color":`).String(n.Color)
		e.Raw(`,"size":`)
	}
	m.headEnd = int32(e.Len())
	e.Float(n.Size)
	e.Raw(`,"fill":`).Float(n.Fill)
	e.Raw(`,"avail":`).Float(n.Avail)
	e.Raw(`,"count":`).Int(n.Count)
	e.Raw(`,"value":`).Float(n.Value)
	m.pos = int32(e.Len())
	m.x, m.y, m.pinned = math.Float64bits(b.Pos.X), math.Float64bits(b.Pos.Y), b.Pinned
	if reuse && old.x == m.x && old.y == m.y && old.pinned == m.pinned {
		e.Copy(tmpl[old.pos:old.posEnd])
	} else {
		if tn == nil {
			tn = tree.Node(n.Group)
		}
		e.Raw(`,"x":`).Float(b.Pos.X)
		e.Raw(`,"y":`).Float(b.Pos.Y)
		e.Raw(`,"pinned":`).Bool(b.Pinned)
		e.Raw(`,"leaf":`).Bool(tn.IsEntity())
	}
	m.posEnd = int32(e.Len())
	if len(n.Segments) > 0 {
		e.Raw(`,"segments":[`)
		for i, seg := range n.Segments {
			if i > 0 {
				e.Raw(",")
			}
			e.Raw(`{"category":`).String(seg.Category)
			e.Raw(`,"fraction":`).Float(seg.Fraction)
			e.Raw(`,"color":`).String(seg.Color)
			e.Raw("}")
		}
		e.Raw("]")
	}
	e.Raw("}")
}

// appendEdges appends an edge list.
func appendEdges(e *wire.Encoder, edges []vizgraph.Edge) {
	e.Raw("[")
	for i, ed := range edges {
		if i > 0 {
			e.Raw(",")
		}
		e.Raw(`{"from":`).String(ed.From)
		e.Raw(`,"to":`).String(ed.To)
		e.Raw(`,"mult":`).Int(ed.Multiplicity)
		e.Raw("}")
	}
	e.Raw("]")
}

// appendParams appends the layout parameters under their Go field names,
// the form /api/params decodes.
func appendParams(e *wire.Encoder, p layout.Params) {
	e.Raw(`{"Charge":`).Float(p.Charge)
	e.Raw(`,"Spring":`).Float(p.Spring)
	e.Raw(`,"SpringLength":`).Float(p.SpringLength)
	e.Raw(`,"Damping":`).Float(p.Damping)
	e.Raw(`,"Theta":`).Float(p.Theta)
	e.Raw(`,"TimeStep":`).Float(p.TimeStep)
	e.Raw(`,"MaxVelocity":`).Float(p.MaxVelocity)
	e.Raw(`,"Parallelism":`).Int(p.Parallelism)
	e.Raw("}")
}
