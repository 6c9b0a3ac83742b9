package aggregation

import (
	"fmt"
	"sync/atomic"
)

// Cut is the current spatial scale: a set of active hierarchy nodes that
// partitions the leaves (every leaf has exactly one active ancestor-or-
// self). The analyst refines a cut with Disaggregate and coarsens it with
// Aggregate; both are the interactive grouping operations of the paper's
// Figures 3 and 8.
type Cut struct {
	tree   *Tree
	active map[string]bool
	// leafOwner caches each leaf's active ancestor, rebuilt lazily.
	leafOwner map[string]string
	// activeOrder caches Active() in declaration order, rebuilt lazily.
	activeOrder []string
	// gen identifies the cut's current state; callers use it as a cache
	// key for anything derived from the cut.
	gen uint64
}

// cutGen issues globally unique cut generations, so a generation seen on
// one Cut instance can never collide with another instance's (a view
// swaps whole cuts on level jumps).
var cutGen atomic.Uint64

// Generation returns an identifier for the cut's current state: unique
// across cut instances and changed by every successful Aggregate or
// Disaggregate — the cache key for cut-derived results.
func (c *Cut) Generation() uint64 { return c.gen }

// bump invalidates the lazily derived state after a cut mutation.
func (c *Cut) bump() {
	c.gen = cutGen.Add(1)
	c.leafOwner = nil
	c.activeOrder = nil
}

// NewLeafCut returns the finest cut: every atomic entity is its own
// group. Behavioural children of entities (processes under a host) never
// appear in cuts.
func NewLeafCut(t *Tree) *Cut {
	c := &Cut{tree: t, active: make(map[string]bool), gen: cutGen.Add(1)}
	var walk func(name string)
	walk = func(name string) {
		n := t.Node(name)
		if n.IsEntity() {
			c.active[name] = true
			return
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, r := range t.Roots() {
		walk(r)
	}
	return c
}

// NewLevelCut returns the cut at a hierarchy depth: groups at the given
// depth are active, and entities shallower than it stay active as
// themselves. Depth 0 aggregates everything into the roots; passing
// MaxDepth (or more) yields the leaf cut.
func NewLevelCut(t *Tree, depth int) *Cut {
	c := &Cut{tree: t, active: make(map[string]bool), gen: cutGen.Add(1)}
	var walk func(name string)
	walk = func(name string) {
		n := t.Node(name)
		if n.IsEntity() || n.Depth == depth {
			c.active[name] = true
			return
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, r := range t.Roots() {
		walk(r)
	}
	return c
}

// Active returns the active node names in declaration order. The result
// is a fresh copy; the per-frame hot path uses Groups.
func (c *Cut) Active() []string {
	groups := c.Groups()
	out := make([]string, len(groups))
	copy(out, groups)
	return out
}

// Groups returns the active node names in declaration order, memoized
// until the cut changes. The returned slice is shared: callers must not
// modify it.
func (c *Cut) Groups() []string {
	if c.activeOrder == nil {
		c.activeOrder = make([]string, 0, len(c.active))
		for _, name := range c.tree.order {
			if c.active[name] {
				c.activeOrder = append(c.activeOrder, name)
			}
		}
	}
	return c.activeOrder
}

// OwnerIndex returns the memoized map from every atomic entity to its
// active group (Owner for the whole tree at once). The returned map is
// shared: callers must not modify it. Interior nodes are not keys; use
// Owner for them.
func (c *Cut) OwnerIndex() map[string]string {
	c.ensureOwners()
	return c.leafOwner
}

// Size returns the number of active groups.
func (c *Cut) Size() int { return len(c.active) }

// Aggregate coarsens the cut: every active node strictly below name is
// deactivated and name becomes active. It fails when name is unknown,
// already active, or when some of its leaves belong to a group that is not
// strictly below name (the groups would overlap).
func (c *Cut) Aggregate(name string) error {
	n := c.tree.Node(name)
	if n == nil {
		return fmt.Errorf("aggregation: unknown node %q", name)
	}
	if c.active[name] {
		return fmt.Errorf("aggregation: %q is already aggregated", name)
	}
	// Every leaf under name must currently be owned by a group strictly
	// below name; otherwise aggregating name would swallow a sibling group.
	c.ensureOwners()
	leaves, err := c.tree.leavesUnder(name)
	if err != nil {
		return err
	}
	var below []string
	seen := make(map[string]bool)
	for _, l := range leaves {
		owner := c.leafOwner[l]
		if owner == "" {
			return fmt.Errorf("aggregation: leaf %q has no active group", l)
		}
		if !c.tree.IsAncestorOrSelf(name, owner) {
			return fmt.Errorf("aggregation: cannot aggregate %q: leaf %q belongs to group %q outside it", name, l, owner)
		}
		if !seen[owner] {
			seen[owner] = true
			below = append(below, owner)
		}
	}
	for _, g := range below {
		delete(c.active, g)
	}
	c.active[name] = true
	c.bump()
	return nil
}

// Disaggregate refines the cut: name must be active and have children; it
// is replaced by them.
func (c *Cut) Disaggregate(name string) error {
	n := c.tree.Node(name)
	if n == nil {
		return fmt.Errorf("aggregation: unknown node %q", name)
	}
	if !c.active[name] {
		return fmt.Errorf("aggregation: %q is not an active group", name)
	}
	if n.IsEntity() {
		return fmt.Errorf("aggregation: %q is an atomic entity, cannot disaggregate", name)
	}
	delete(c.active, name)
	for _, child := range n.Children {
		c.active[child] = true
	}
	c.bump()
	return nil
}

// Owner returns the active group a leaf (or interior node) belongs to:
// its closest active ancestor-or-self. It returns "" when none exists
// (which cannot happen on a valid cut).
func (c *Cut) Owner(name string) string {
	for cur := name; cur != ""; {
		if c.active[cur] {
			return cur
		}
		n := c.tree.Node(cur)
		if n == nil {
			return ""
		}
		cur = n.Parent
	}
	return ""
}

// entityLeaves lists the atomic entities of the whole tree, in
// declaration order.
func (c *Cut) entityLeaves() []string {
	var out []string
	for _, root := range c.tree.roots {
		leaves, err := c.tree.leavesUnder(root)
		if err == nil {
			out = append(out, leaves...)
		}
	}
	return out
}

func (c *Cut) ensureOwners() {
	if c.leafOwner != nil {
		return
	}
	c.leafOwner = make(map[string]string)
	for _, name := range c.entityLeaves() {
		c.leafOwner[name] = c.Owner(name)
	}
}

// Members returns the entities owned by an active group, in declaration
// order.
func (c *Cut) Members(group string) []string {
	c.ensureOwners()
	var out []string
	for _, name := range c.entityLeaves() {
		if c.leafOwner[name] == group {
			out = append(out, name)
		}
	}
	return out
}

// Validate checks the cut invariant: every atomic entity has exactly one
// active ancestor-or-self.
func (c *Cut) Validate() error {
	for _, name := range c.entityLeaves() {
		count := 0
		for cur := name; cur != ""; cur = c.tree.nodes[cur].Parent {
			if c.active[cur] {
				count++
			}
		}
		if count != 1 {
			return fmt.Errorf("aggregation: entity %q has %d active ancestors, want 1", name, count)
		}
	}
	return nil
}
