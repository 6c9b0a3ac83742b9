package layout

import "math"

// Barnes-Hut quadtree: far groups of bodies are approximated by their
// aggregate charge at their centre of charge, turning the O(n²) all-pairs
// repulsion into O(n log n) [Barnes & Hut 1986], which is what lets the
// layout scale to thousands of nodes.
//
// The tree is one flat slice of its non-empty cells in depth-first
// preorder (quadrants -x-y, +x-y, -x+y, +x+y), reused across steps. Each
// cell holds the index just past its subtree, so the walk is a forward
// scan: accepting a cell skips its subtree, opening it steps into it. The
// build partitions the bodies cell by cell, folding each quadrant's
// charge in ascending body order, so each body's force is the same sum
// of the same bits whichever worker built or walked the tree.

const (
	maxQuadDepth = 64 // coincident bodies stay in one cell at this depth, a pile
	noNode       = int32(-1)
)

// quadNode is one non-empty cell: its square [x, x+size) × [y, y+size),
// its bodies' centre of charge and total charge, a one-body leaf's body
// (else noNode) and the index past its subtree (i+1 for a leaf).
type quadNode struct {
	x, y, size, cx, cy, charge float64
	body, skip                 int32
}

// point is one body as the build partitions it, q its effCharge.
type point struct {
	x, y, q float64
	i       int32
}

// cell is a square being built over the range [lo, hi) of its depth's
// buffer (see buffers), its aggregate already folded.
type cell struct {
	x, y, size, cx, cy, charge float64
	lo, hi, depth              int32
}

func (c *cell) fold(p *point) {
	total := c.charge + p.q
	c.cx = (c.cx*c.charge + p.x*p.q) / total
	c.cy = (c.cy*c.charge + p.y*p.q) / total
	c.charge = total
}

// segment is a run of cells in preorder, skips relative to its start.
type segment struct {
	nodes []quadNode
	depth int32 // the deepest level, an obs gauge
}

// add appends c's node, its skip still unset, and returns its index.
func (s *segment) add(c *cell) int {
	s.depth = max(s.depth, c.depth)
	s.nodes = append(s.nodes, quadNode{c.x, c.y, c.size, c.cx, c.cy, c.charge, noNode, 0})
	return len(s.nodes) - 1
}

// quadTree is the reusable tree; the zero value is ready to use.
type quadTree struct {
	segment          // the tree of the last build
	pts, tmp []point // the bodies, partitioned cell by cell
	// A parallel build's jobs, the root's quadrants, and their subtrees.
	jobs [4]cell
	segs [4]segment
}

// buildTree constructs the tree over the layout's bodies on w workers.
func (l *Layout) buildTree(w int) {
	t := &l.tree
	t.segment = segment{t.nodes[:0], 0}
	n := len(l.bodies)
	if n == 0 {
		return
	}
	if cap(t.pts) < n {
		t.pts, t.tmp = make([]point, n), make([]point, n)
	}
	t.pts, t.tmp = t.pts[:n], t.tmp[:n]
	lo, hi := l.BoundingBox()
	size := max(hi.X-lo.X, hi.Y-lo.Y)
	if size <= 0 {
		size = 1
	}
	root := cell{x: lo.X, y: lo.Y, size: size * 1.0001, hi: int32(n)} // the max coordinate stays inside
	for i, b := range l.bodies {
		t.pts[i] = point{b.Pos.X, b.Pos.Y, effCharge(b.Charge), int32(i)}
		root.fold(&t.pts[i])
	}
	if w == 1 || n == 1 {
		t.grow(&t.segment, &root)
		return
	}
	// The workers grow the root's quadrants into their own segments and
	// ranges of the partition buffers; the segments follow the root.
	t.add(&root)
	jobs := t.split(&root, &t.jobs)
	l.fan(w, nil, jobs, 1, (*Layout).growJobs)
	for _, s := range t.segs[:jobs] {
		off := int32(len(t.nodes))
		for _, nd := range s.nodes {
			nd.skip += off
			t.nodes = append(t.nodes, nd)
		}
		t.depth = max(t.depth, s.depth)
	}
	t.nodes[0].skip = int32(len(t.nodes))
}

// growJobs grows jobs[lo:hi] into segs[lo:hi].
func (l *Layout) growJobs(_ []int32, lo, hi int) {
	t := &l.tree
	for k := lo; k < hi; k++ {
		s := segment{t.segs[k].nodes[:0], 0} // private: headers share cache lines
		t.grow(&s, &t.jobs[k])
		t.segs[k] = s
	}
}

// grow appends c's subtree to s in preorder: a cell of two or more
// bodies splits until maxQuadDepth, where it stays a pile.
func (t *quadTree) grow(s *segment, c *cell) {
	i := s.add(c)
	switch src, _ := t.buffers(c.depth); {
	case c.hi-c.lo == 1:
		s.nodes[i].body = src[c.lo].i
	case c.depth < maxQuadDepth:
		var kids [4]cell
		for k, m := 0, t.split(c, &kids); k < m; k++ {
			t.grow(s, &kids[k])
		}
	}
	s.nodes[i].skip = int32(len(s.nodes))
}

// buffers returns where a cell at depth d keeps its bodies and where its
// split writes its children's: pts at even depths and tmp at odd ones,
// so the partition never copies back.
func (t *quadTree) buffers(d int32) (src, dst []point) {
	if d&1 != 0 {
		return t.tmp, t.pts
	}
	return t.pts, t.tmp
}

// split stably partitions c's bodies into its quadrants, folding each
// quadrant's aggregate on the way, and writes the non-empty ones to kids
// in quadrant order. It returns how many there are.
func (t *quadTree) split(c *cell, kids *[4]cell) int {
	src, dst := t.buffers(c.depth)
	half := c.size / 2
	xs, ys := [2]float64{c.x, c.x + half}, [2]float64{c.y, c.y + half}
	var quads [4]cell // hi counts the quadrant's bodies until laid out
	for k := c.lo; k < c.hi; k++ {
		q := &quads[b2i(src[k].x >= xs[1])+2*b2i(src[k].y >= ys[1])]
		q.fold(&src[k])
		q.hi++
	}
	n, at, next := 0, c.lo, [4]int32{}
	for q, k := range quads {
		next[q], at = at, at+k.hi
		if k.hi > 0 {
			k.x, k.y, k.size, k.lo, k.hi, k.depth = xs[q&1], ys[q>>1], half, next[q], at, c.depth+1
			kids[n], n = k, n+1
		}
	}
	for k := c.lo; k < c.hi; k++ {
		q := b2i(src[k].x >= xs[1]) + 2*b2i(src[k].y >= ys[1])
		dst[next[q]] = src[k]
		next[q]++
	}
	return n
}

// force returns the Barnes-Hut repulsion on body bi and the number of
// terms it summed, visiting the cells in preorder.
func (t *quadTree) force(bi int32, b *Body, theta2, chargeK float64) (f Point, terms int) {
	bc := effCharge(b.Charge)
	kb := chargeK * bc
	px, py := b.Pos.X, b.Pos.Y
	for i := int32(0); i < int32(len(t.nodes)); {
		nd := &t.nodes[i]
		if nd.body == bi {
			i = nd.skip // b's own leaf
			continue
		}
		dx := px - nd.cx
		dy := py - nd.cy
		dist := dx*dx + dy*dy
		// Open unless size/dist < theta or the cell is a leaf (or a pile).
		if nd.skip != i+1 && !(nd.size*nd.size < theta2*dist) {
			i++
			continue
		}
		i = nd.skip
		if dist < 1e-6 {
			// Coincident with the cell's centre: nudge deterministically.
			h := fnv64(b.ID)
			dx = float64(h%1000)/1000 - 0.5
			dy = float64((h/1000)%1000)/1000 - 0.5
			dist = dx*dx + dy*dy
		}
		d := math.Sqrt(dist)
		// Exclude b's own charge when b lies in the cell's square (a pile's
		// square collapses below the ulp away from the origin: b stays in).
		charge := nd.charge
		if b2i(px >= nd.x)&b2i(px < nd.x+nd.size)&b2i(py >= nd.y)&b2i(py < nd.y+nd.size) != 0 {
			if charge -= bc; charge <= 0 {
				continue
			}
		}
		mag := kb * charge / dist
		f.X += dx / d * mag
		f.Y += dy / d * mag
		terms++
	}
	return f, terms
}

// b2i is 1 for true: comparisons combined through it take no branches.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// repelBarnesHut builds the quadtree over ALL bodies (inactive ones must
// keep pushing) and adds its repulsion to the active ones.
func (l *Layout) repelBarnesHut(active []int32) {
	l.buildTree(l.workersFor(len(l.bodies)))
	obsQuadNodes.Set(float64(len(l.tree.nodes)))
	obsQuadDepth.Set(float64(l.tree.depth))
	if len(l.tree.nodes) > 0 {
		l.forBodies(active, (*Layout).repelShard)
	}
}

// repelShard is repelBarnesHut over active[lo:hi].
func (l *Layout) repelShard(active []int32, lo, hi int) {
	theta := l.params.Theta
	if theta <= 0 {
		theta = 0.7
	}
	terms := 0
	for _, i := range active[lo:hi] {
		b := l.bodies[i]
		f, n := l.tree.force(i, b, theta*theta, l.params.Charge)
		b.force = b.force.Add(f)
		terms += n
	}
	obsForceTerms.Add(uint64(terms))
}
