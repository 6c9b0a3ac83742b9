package server

import (
	"viva/internal/aggregation"
	"viva/internal/layout"
	"viva/internal/vizgraph"
	"viva/internal/wire"
)

// The /api/graph payloads are appended field by field from the graph,
// the layout bodies and the tree (see package wire): no intermediate
// structs, no reflection. Field order and spelling are the wire format
// ui.go reads; an empty list is [], never null.

// encodeGraph writes the full /api/graph payload, moving being the last
// layout step's residual in render px:
//
//	{"nodes":[…],"edges":[…],"slice":[s,e],"window":[s,e],"params":{…},"moving":m}
func (s *Server) encodeGraph(g *vizgraph.Graph, tree *aggregation.Tree, moving float64) ([]byte, error) {
	e := newEncoder(s.graphLen)
	e.Raw(`{"nodes":`)
	s.appendNodes(e, tree, g.Nodes)
	e.Raw(`,"edges":`)
	appendEdges(e, g.Edges)
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
	e := newEncoder(s.lodLen)
	e.Raw(`{"nodes":`)
	s.appendNodes(e, tree, lod.Visible)
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
// payload of the same form (*last), plus slack for numbers that run a
// few digits longer, so a frame normally fills one allocation. Nothing
// is kept between frames: the buffer becomes the response, and the
// byte cache when the view is settled.
func newEncoder(last int) *wire.Encoder {
	return wire.NewEncoder(make([]byte, 0, last+last/32+512))
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

// appendNodes appends the nodes that have a layout body.
func (s *Server) appendNodes(e *wire.Encoder, tree *aggregation.Tree, nodes []*vizgraph.Node) {
	lay := s.view.Layout()
	e.Raw("[")
	sep := ""
	for _, n := range nodes {
		if b := lay.Body(n.ID); b != nil {
			e.Raw(sep)
			appendNode(e, tree, n, b)
			sep = ","
		}
	}
	e.Raw("]")
}

// appendNode appends one visual node with its layout body. Segments are
// omitted when the node has none.
func appendNode(e *wire.Encoder, tree *aggregation.Tree, n *vizgraph.Node, b *layout.Body) {
	tn := tree.Node(n.Group)
	e.Raw(`{"id":`).String(n.ID)
	e.Raw(`,"group":`).String(n.Group)
	e.Raw(`,"parent":`).String(tn.Parent) // hierarchy parent of the group
	e.Raw(`,"type":`).String(n.Type)
	e.Raw(`,"label":`).String(n.Label)
	e.Raw(`,"shape":`).String(n.Shape.String())
	e.Raw(`,"color":`).String(n.Color)
	e.Raw(`,"size":`).Float(n.Size)
	e.Raw(`,"fill":`).Float(n.Fill)
	e.Raw(`,"avail":`).Float(n.Avail)
	e.Raw(`,"count":`).Int(n.Count)
	e.Raw(`,"value":`).Float(n.Value)
	e.Raw(`,"x":`).Float(b.Pos.X)
	e.Raw(`,"y":`).Float(b.Pos.Y)
	e.Raw(`,"pinned":`).Bool(b.Pinned)
	e.Raw(`,"leaf":`).Bool(tn.IsEntity())
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
