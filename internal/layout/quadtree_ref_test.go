package layout

import "math"

// The reference Barnes-Hut tree: the arena-backed quadtree with its
// insert-one-body-at-a-time build and its stack-based walk, kept verbatim
// as the oracle the flat preorder tree must match bit for bit. Child
// quadrants are allocated four at a time, so a node's children occupy
// indices children..children+3, empty quadrants included.

type arenaNode struct {
	// Square region [x, x+size) × [y, y+size).
	x, y, size float64

	charge float64 // total charge of contained bodies
	cx, cy float64 // centre of charge
	body   int32   // body index for a leaf with exactly one body, else noNode
	// children is the arena index of the first of four consecutive child
	// nodes (quadrant k at children+k), or noNode for a leaf.
	children int32
	count    int32
}

// quadArena is the reusable slab the tree is built into. The zero value is
// ready to use.
type quadArena struct {
	nodes    []arenaNode
	maxDepth int
	root     int32
}

// build constructs the tree over the bodies, reusing the slab from the
// previous step, and returns the root index (noNode for no bodies).
func (a *quadArena) build(bodies []*Body) int32 {
	a.nodes = a.nodes[:0]
	a.maxDepth = 0
	if len(bodies) == 0 {
		return noNode
	}
	minX, minY := bodies[0].Pos.X, bodies[0].Pos.Y
	maxX, maxY := minX, minY
	for _, b := range bodies[1:] {
		if b.Pos.X < minX {
			minX = b.Pos.X
		}
		if b.Pos.X > maxX {
			maxX = b.Pos.X
		}
		if b.Pos.Y < minY {
			minY = b.Pos.Y
		}
		if b.Pos.Y > maxY {
			maxY = b.Pos.Y
		}
	}
	size := maxX - minX
	if dy := maxY - minY; dy > size {
		size = dy
	}
	if size <= 0 {
		size = 1
	}
	size *= 1.0001 // keep the max coordinate strictly inside
	root := a.alloc(minX, minY, size)
	for i := range bodies {
		a.insert(root, bodies, int32(i), 0)
	}
	a.root = root
	return root
}

// alloc appends one node.
func (a *quadArena) alloc(x, y, size float64) int32 {
	a.nodes = append(a.nodes, arenaNode{x: x, y: y, size: size, body: noNode, children: noNode})
	return int32(len(a.nodes) - 1)
}

// allocChildren appends the four quadrants of node n as one consecutive
// block and returns the index of the first.
func (a *quadArena) allocChildren(n int32) int32 {
	nd := a.nodes[n]
	half := nd.size / 2
	first := a.alloc(nd.x, nd.y, half)
	a.alloc(nd.x+half, nd.y, half)
	a.alloc(nd.x, nd.y+half, half)
	a.alloc(nd.x+half, nd.y+half, half)
	return first
}

// childFor returns the child of n covering p (the quadrants are laid out
// row-major: -x-y, +x-y, -x+y, +x+y).
func (a *quadArena) childFor(n int32, p Point) int32 {
	nd := &a.nodes[n]
	half := nd.size / 2
	idx := int32(0)
	if p.X >= nd.x+half {
		idx++
	}
	if p.Y >= nd.y+half {
		idx += 2
	}
	return nd.children + idx
}

// insert descends from node n adding body bi, updating every aggregate on
// the path.
func (a *quadArena) insert(n int32, bodies []*Body, bi int32, depth int) {
	b := bodies[bi]
	c := b.Charge
	if c <= 0 {
		c = 1
	}
	for {
		if depth > a.maxDepth {
			a.maxDepth = depth
		}
		nd := &a.nodes[n]
		total := nd.charge + c
		nd.cx = (nd.cx*nd.charge + b.Pos.X*c) / total
		nd.cy = (nd.cy*nd.charge + b.Pos.Y*c) / total
		nd.charge = total
		nd.count++

		if nd.count == 1 {
			nd.body = bi
			return
		}
		if depth >= maxQuadDepth {
			return
		}
		if nd.children == noNode {
			ci := a.allocChildren(n)
			nd = &a.nodes[n]
			nd.children = ci
			if nd.body != noNode {
				old := nd.body
				nd.body = noNode
				a.insert(a.childFor(n, bodies[old].Pos), bodies, old, depth+1)
			}
		}
		n = a.childFor(n, b.Pos)
		depth++
	}
}

// forceOn accumulates the Barnes-Hut approximated repulsion on body bi by
// an iterative traversal from root, children pushed in reverse so
// quadrants are visited in 0..3 order.
func (a *quadArena) forceOn(root int32, bodies []*Body, bi int32, theta, chargeK float64, stack []int32) (Point, []int32) {
	var out Point
	b := bodies[bi]
	bc := b.Charge
	if bc <= 0 {
		bc = 1
	}
	stack = append(stack[:0], root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &a.nodes[n]
		if nd.count == 0 {
			continue
		}
		if nd.body == bi && nd.count == 1 {
			continue
		}
		dx := b.Pos.X - nd.cx
		dy := b.Pos.Y - nd.cy
		dist := dx*dx + dy*dy
		if nd.body != noNode || nd.children == noNode || nd.size*nd.size < theta*theta*dist {
			if dist < 1e-6 {
				h := fnv64(b.ID)
				dx = float64(h%1000)/1000 - 0.5
				dy = float64((h/1000)%1000)/1000 - 0.5
				dist = dx*dx + dy*dy
			}
			d := math.Sqrt(dist)
			charge := nd.charge
			if b.Pos.X >= nd.x && b.Pos.X < nd.x+nd.size && b.Pos.Y >= nd.y && b.Pos.Y < nd.y+nd.size {
				charge -= bc
				if charge <= 0 {
					continue
				}
			}
			mag := chargeK * bc * charge / dist
			out.X += dx / d * mag
			out.Y += dy / d * mag
			continue
		}
		stack = append(stack, nd.children+3, nd.children+2, nd.children+1, nd.children)
	}
	return out, stack
}

// refRepulsion returns the reference Barnes-Hut repulsion on each active
// body (indexed like active), with the theta default the layout applies.
func refRepulsion(l *Layout, active []int32) []Point {
	theta := l.params.Theta
	if theta <= 0 {
		theta = 0.7
	}
	var a quadArena
	out := make([]Point, len(active))
	root := a.build(l.bodies)
	if root == noNode {
		return out
	}
	var stack []int32
	for k, i := range active {
		out[k], stack = a.forceOn(root, l.bodies, i, theta, l.params.Charge, stack)
	}
	return out
}
