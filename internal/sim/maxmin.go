package sim

// solveMaxMin assigns max-min fair rates to the given flows over the given
// resources (all flows are attached and every resource of every flow is in
// the resource set — the caller passes one connected component, in any
// order).
//
// The classic water-filling algorithm: repeatedly find the resource whose
// equal split among its still-unfixed flows is smallest, fix those flows at
// that share, remove their consumption everywhere, and iterate. No rate
// depends on the order of the arguments: among equal shares the
// bottleneck is the resource of lowest name-rank (resource.order), and
// every flow fixed in one round subtracts the same share.
//
// The working state lives on the resources and flows themselves (remCap,
// nUnfixed, fixed), valid only inside this call; no maps are built.
func solveMaxMin(resources []*resource, flows []*activity) {
	if len(flows) == 0 {
		return
	}
	for _, r := range resources {
		r.remCap = r.capacity
		n := 0
		for _, f := range r.flows {
			if f.attached && !f.done {
				n++
			}
		}
		r.nUnfixed = n
	}
	for _, f := range flows {
		f.fixed = false
	}

	for fixedCount := 0; fixedCount < len(flows); {
		// Find the bottleneck resource: minimal fair share.
		var bottleneck *resource
		best := 0.0
		for _, r := range resources {
			if r.nUnfixed == 0 {
				continue
			}
			share := r.remCap / float64(r.nUnfixed)
			if bottleneck == nil || share < best || share == best && r.order < bottleneck.order {
				bottleneck = r
				best = share
			}
		}
		if bottleneck == nil {
			// No resource constrains the remaining flows; cannot happen for
			// attached flows (every flow uses at least one resource), but be
			// safe and give them effectively unconstrained rate.
			for _, f := range flows {
				if !f.fixed {
					f.rate = 1e30
					f.fixed = true
					fixedCount++
				}
			}
			return
		}
		if best < 0 {
			best = 0
		}
		// Fix every unfixed flow crossing the bottleneck at the fair share.
		for _, f := range bottleneck.flows {
			if f.fixed || !f.attached || f.done {
				continue
			}
			f.rate = best
			f.fixed = true
			fixedCount++
			for _, r := range f.resources {
				r.remCap -= best
				if r.remCap < 0 {
					r.remCap = 0
				}
				r.nUnfixed--
			}
		}
	}
}
