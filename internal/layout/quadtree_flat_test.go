package layout

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// layoutOf builds a layout over the given positions and charges; body i
// is named "b<i>", which seeds its coincidence nudge.
func layoutOf(t *testing.T, pos []Point, charges []float64) *Layout {
	t.Helper()
	l := New(DefaultParams())
	for i, p := range pos {
		mustAdd(t, l, fmt.Sprintf("b%d", i), p, charges[i])
	}
	return l
}

// clustered places n bodies the way a Grid'5000 view spreads: sites on a
// wide ring, clusters fanned around each site, hosts fanned tightly
// around each cluster, with the hubs carrying larger charges.
func clustered(n int) ([]Point, []float64) {
	var pos []Point
	var charges []float64
	for i := 0; len(pos) < n; i++ {
		site := ScatterAround(Point{}, []string{fmt.Sprint("site", i)}, 2000)[0]
		pos, charges = append(pos, site), append(charges, 5)
		for c := 0; c < 6 && len(pos) < n; c++ {
			cl := ScatterAround(site, []string{fmt.Sprint("cl", i, ".", c)}, 300)[0]
			pos, charges = append(pos, cl), append(charges, 3)
			for h := 0; h < 60 && len(pos) < n; h++ {
				pos = append(pos, ScatterAround(cl, []string{fmt.Sprint("h", i, ".", c, ".", h)}, 40)[0])
				charges = append(charges, 1)
			}
		}
	}
	return pos, charges
}

// uniform scatters n bodies over a 1000-unit square with charges 1–3.
func uniform(n int, seed string) ([]Point, []float64) {
	pos, charges := make([]Point, n), make([]float64, n)
	for i := range pos {
		h := fnv64(fmt.Sprint(seed, i))
		pos[i] = Point{float64(h%100000)/100 - 500, float64((h/100000)%100000)/100 - 500}
		charges[i] = 1 + float64(h%3)
	}
	return pos, charges
}

// flatLayouts are the seeded layouts the flat tree is held to the
// reference on.
func flatLayouts() map[string]func() ([]Point, []float64) {
	return map[string]func() ([]Point, []float64){
		"uniform":   func() ([]Point, []float64) { return uniform(1500, "u") },
		"clustered": func() ([]Point, []float64) { return clustered(1500) },
		"piles": func() ([]Point, []float64) {
			// Coincident piles at the origin (where the depth-limit cell
			// still holds its bodies by the box test) and away from it
			// (where it no longer does), among a uniform scatter.
			pos, charges := uniform(1200, "p")
			for i := 0; i < 300; i++ {
				pos = append(pos, []Point{{0, 0}, {7, 7}, {-123.25, 400.5}}[i%3])
				charges = append(charges, float64(1+i%2))
			}
			return pos, charges
		},
		"degenerate": func() ([]Point, []float64) {
			// A vertical line: zero width, so the root is a tall square.
			pos, charges := make([]Point, 1000), make([]float64, 1000)
			for i := range pos {
				pos[i], charges[i] = Point{5, float64(i % 700)}, 1
			}
			return pos, charges
		},
		"single-point": func() ([]Point, []float64) {
			pos, charges := make([]Point, 600), make([]float64, 600)
			for i := range pos {
				pos[i], charges[i] = Point{3, -4}, 1
			}
			return pos, charges
		},
		"charges": func() ([]Point, []float64) {
			// Zero and negative charges count as 1 in the aggregate.
			pos, charges := clustered(1300)
			for i := range charges {
				charges[i] = []float64{0, -2, 1, 4.5, -0.5}[i%5]
			}
			return pos, charges
		},
	}
}

// requireSameForces fails unless got and want agree bit for bit.
func requireSameForces(t *testing.T, got, want []Point, what string) {
	t.Helper()
	bad := 0
	for k := range want {
		g, w := got[k], want[k]
		if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) {
			if bad++; bad <= 3 {
				t.Errorf("%s: body %d force %v, reference %v", what, k, g, w)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%s: %d of %d forces differ from the reference", what, bad, len(want))
	}
}

// The flat tree's forces are the reference arena's, bit for bit: on every
// seeded layout family, for the whole body set and for active subsets,
// at Parallelism 1, 2 and 4 (which splits the build and the walk across
// workers), and at several opening angles.
func TestFlatWalkMatchesReference(t *testing.T) {
	for name, gen := range flatLayouts() {
		pos, charges := gen()
		for _, theta := range []float64{0, 0.5, 1.2} {
			for _, par := range []int{1, 2, 4} {
				l := layoutOf(t, pos, charges)
				p := l.Params()
				p.Theta, p.Parallelism = theta, par
				l.SetParams(p)
				all := l.allIndices()
				var some []int32
				for _, i := range all {
					if i%3 != 1 {
						some = append(some, i)
					}
				}
				for _, active := range [][]int32{all, some} {
					for _, i := range all {
						l.bodies[i].force = Point{}
					}
					l.repelBarnesHut(active)
					got := make([]Point, len(active))
					for k, i := range active {
						got[k] = l.bodies[i].force
					}
					what := fmt.Sprintf("%s θ=%g P=%d active=%d", name, theta, par, len(active))
					requireSameForces(t, got, refRepulsion(l, active), what)
				}
			}
		}
	}
}

// The parallel build lays out exactly the serial tree: same cells, same
// bits, same skip indices, same depth.
func TestParallelBuildMatchesSerial(t *testing.T) {
	for name, gen := range flatLayouts() {
		pos, charges := gen()
		l := layoutOf(t, pos, charges)
		l.buildTree(1)
		serial := append([]quadNode(nil), l.tree.nodes...)
		depth := l.tree.depth
		for _, w := range []int{2, 3, 4, 16} {
			l.buildTree(w)
			if len(l.tree.nodes) != len(serial) || l.tree.depth != depth {
				t.Fatalf("%s w=%d: %d nodes depth %d, serial %d nodes depth %d",
					name, w, len(l.tree.nodes), l.tree.depth, len(serial), depth)
			}
			for i, nd := range l.tree.nodes {
				if nd != serial[i] {
					t.Fatalf("%s w=%d: node %d is %+v, serial %+v", name, w, i, nd, serial[i])
				}
			}
		}
	}
}

// decodeBodies turns fuzz bytes into a layout and build settings. The
// header picks theta, the build's worker count, a coordinate scale
// (down to spacings far below the offset's ulp) and an offset; each
// five-byte record is one body: int16 x, int16 y (so repeated records
// make coincident piles) and an int8 charge (zero and negative included).
// At most 128 bodies: cheap inputs keep the fuzzer's minimizer, which
// reruns an input many times, well inside a ten-second smoke run.
func decodeBodies(data []byte) (pos []Point, charges []float64, theta float64, w int) {
	if len(data) < 4 {
		return nil, nil, 0, 1
	}
	theta = float64(data[0]) / 64
	w = 1 + int(data[1]%4)
	scale := math.Ldexp(1, int(data[2]%64)-40)
	offset := float64(int8(data[3])) * 1000
	for rec := data[4:]; len(rec) >= 5 && len(pos) < 128; rec = rec[5:] {
		x := float64(int16(binary.LittleEndian.Uint16(rec)))
		y := float64(int16(binary.LittleEndian.Uint16(rec[2:])))
		pos = append(pos, Point{offset + x*scale, offset + y*scale})
		charges = append(charges, float64(int8(rec[4]))/4)
	}
	return pos, charges, theta, w
}

// FuzzBarnesHutMatchesReference holds the flat tree, built on the fuzzed
// worker count, to the reference arena: every body's force must match
// bit for bit.
func FuzzBarnesHutMatchesReference(f *testing.F) {
	f.Add([]byte{45, 0, 40, 0, 1, 0, 2, 0, 4, 1, 0, 2, 0, 4, 9, 0, 0, 0, 0})
	f.Add([]byte{200, 1, 0, 127, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 252, 5, 0, 5, 0, 3})
	seed := []byte{64, 3, 30, 3}
	for i := 0; i < 128; i++ {
		h := fnv64(fmt.Sprint(i))
		seed = append(seed, byte(h), byte(h>>8), byte(h>>16), byte(h>>24), byte(h>>32))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		pos, charges, theta, w := decodeBodies(data)
		l := New(DefaultParams())
		for i, p := range pos {
			if _, err := l.AddBody(fmt.Sprint(i), p, charges[i]); err != nil {
				t.Fatal(err)
			}
		}
		p := l.Params()
		p.Theta = theta
		l.SetParams(p)
		active := l.allIndices()
		want := refRepulsion(l, active)
		l.buildTree(w)
		th := theta
		if th <= 0 {
			th = 0.7
		}
		got := make([]Point, len(active))
		for k, i := range active {
			if len(l.tree.nodes) > 0 {
				got[k], _ = l.tree.force(i, l.bodies[i], th*th, p.Charge)
			}
		}
		requireSameForces(t, got, want, fmt.Sprintf("%d bodies θ=%g w=%d", len(pos), theta, w))
	})
}
