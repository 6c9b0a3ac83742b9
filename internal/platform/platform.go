// Package platform models hierarchical distributed computing platforms:
// hosts with compute power, links with bandwidth and latency, and a
// containment hierarchy (grid → site → cluster → host) that both routing
// and the visualization's spatial aggregation follow.
//
// The model mirrors the platforms of the paper's two case studies: a
// two-cluster HPC allocation (Section 5.1) and a synthetic but structurally
// faithful Grid'5000 with 2170 hosts (Section 5.2).
package platform

import (
	"fmt"
	"slices"
)

// Host is a computing resource.
type Host struct {
	Name    string
	Power   float64 // compute speed, flop/s
	Cluster string  // enclosing cluster name
	Site    string  // enclosing site name
}

// Link is a network resource shared by all flows routed through it.
type Link struct {
	Name      string
	Bandwidth float64 // byte/s
	Latency   float64 // seconds
	Parent    string  // enclosing hierarchy node, for aggregation
}

// Role of each link in the topology, used by analyses that classify
// traffic (for example "how loaded are the inter-cluster links?").
type LinkRole int

const (
	RoleHostLink LinkRole = iota // private link of one host
	RoleBackbone                 // backbone of a cluster or site
	RoleUplink                   // uplink interconnecting a cluster or a site upward
)

// Zone is an interior node of the platform hierarchy.
type Zone struct {
	Name   string
	Kind   string // "grid", "site" or "cluster"
	Parent string // "" for the grid root
}

// Platform is an immutable-after-build description of the machine.
type Platform struct {
	Root string // grid zone name

	zones     map[string]*Zone
	zoneOrder []string
	hosts     map[string]*Host
	hostOrder []string
	links     map[string]*Link
	linkOrder []string
	roles     map[string]LinkRole

	// clusterHosts is each cluster's [start, end) range in hostOrder:
	// AddCluster appends a cluster's hosts contiguously.
	clusterHosts map[string][2]int

	// Per-cluster and per-site plumbing used to compute routes.
	hostLink        map[string]string // host -> private link
	clusterBackbone map[string]string
	clusterUplink   map[string]string
	siteBackbone    map[string]string
	siteUplink      map[string]string
	clusterSite     map[string]string
}

// New returns an empty platform whose root grid zone has the given name.
func New(root string) *Platform {
	p := &Platform{
		Root:            root,
		zones:           make(map[string]*Zone),
		hosts:           make(map[string]*Host),
		links:           make(map[string]*Link),
		roles:           make(map[string]LinkRole),
		clusterHosts:    make(map[string][2]int),
		hostLink:        make(map[string]string),
		clusterBackbone: make(map[string]string),
		clusterUplink:   make(map[string]string),
		siteBackbone:    make(map[string]string),
		siteUplink:      make(map[string]string),
		clusterSite:     make(map[string]string),
	}
	p.addZone(&Zone{Name: root, Kind: "grid"})
	return p
}

func (p *Platform) addZone(z *Zone) {
	if _, ok := p.zones[z.Name]; ok {
		panic(fmt.Sprintf("platform: zone %q already exists", z.Name))
	}
	p.zones[z.Name] = z
	p.zoneOrder = append(p.zoneOrder, z.Name)
}

func (p *Platform) addLink(l *Link, role LinkRole) {
	if _, ok := p.links[l.Name]; ok {
		panic(fmt.Sprintf("platform: link %q already exists", l.Name))
	}
	if l.Bandwidth <= 0 {
		panic(fmt.Sprintf("platform: link %q must have positive bandwidth", l.Name))
	}
	p.links[l.Name] = l
	p.linkOrder = append(p.linkOrder, l.Name)
	p.roles[l.Name] = role
}

// SiteConfig configures AddSite.
type SiteConfig struct {
	BackboneBandwidth float64 // site-internal backbone, byte/s
	BackboneLatency   float64
	UplinkBandwidth   float64 // link toward the grid core, byte/s
	UplinkLatency     float64
}

// AddSite creates a site zone under the grid root, with its backbone and
// its uplink toward the grid core.
func (p *Platform) AddSite(name string, cfg SiteConfig) {
	p.addZone(&Zone{Name: name, Kind: "site", Parent: p.Root})
	bb := "bb:" + name
	up := "up:" + name
	p.addLink(&Link{Name: bb, Bandwidth: cfg.BackboneBandwidth, Latency: cfg.BackboneLatency, Parent: name}, RoleBackbone)
	p.addLink(&Link{Name: up, Bandwidth: cfg.UplinkBandwidth, Latency: cfg.UplinkLatency, Parent: p.Root}, RoleUplink)
	p.siteBackbone[name] = bb
	p.siteUplink[name] = up
}

// ClusterConfig configures AddCluster.
type ClusterConfig struct {
	Hosts             int
	HostPower         float64 // flop/s per host
	HostLinkBandwidth float64 // private link of each host, byte/s
	HostLinkLatency   float64
	BackboneBandwidth float64 // cluster backbone, byte/s
	BackboneLatency   float64
	UplinkBandwidth   float64 // link interconnecting the cluster to its site
	UplinkLatency     float64
}

// AddCluster creates a homogeneous cluster inside an existing site. Hosts
// are named "<cluster>-<i>" with i starting at 1, matching Grid'5000
// conventions.
func (p *Platform) AddCluster(site, name string, cfg ClusterConfig) {
	sz, ok := p.zones[site]
	if !ok || sz.Kind != "site" {
		panic(fmt.Sprintf("platform: cluster %q added to unknown site %q", name, site))
	}
	if cfg.Hosts <= 0 {
		panic(fmt.Sprintf("platform: cluster %q must have hosts", name))
	}
	p.addZone(&Zone{Name: name, Kind: "cluster", Parent: site})
	p.clusterSite[name] = site

	bb := "bb:" + name
	up := "up:" + name
	p.addLink(&Link{Name: bb, Bandwidth: cfg.BackboneBandwidth, Latency: cfg.BackboneLatency, Parent: name}, RoleBackbone)
	// The cluster uplink interconnects clusters of a site: it lives at the
	// site level of the hierarchy.
	p.addLink(&Link{Name: up, Bandwidth: cfg.UplinkBandwidth, Latency: cfg.UplinkLatency, Parent: site}, RoleUplink)
	p.clusterBackbone[name] = bb
	p.clusterUplink[name] = up

	start := len(p.hostOrder)
	for i := 1; i <= cfg.Hosts; i++ {
		hn := fmt.Sprintf("%s-%d", name, i)
		if _, ok := p.hosts[hn]; ok {
			panic(fmt.Sprintf("platform: host %q already exists", hn))
		}
		p.hosts[hn] = &Host{Name: hn, Power: cfg.HostPower, Cluster: name, Site: site}
		p.hostOrder = append(p.hostOrder, hn)
		ln := "lnk:" + hn
		p.addLink(&Link{Name: ln, Bandwidth: cfg.HostLinkBandwidth, Latency: cfg.HostLinkLatency, Parent: name}, RoleHostLink)
		p.hostLink[hn] = ln
	}
	p.clusterHosts[name] = [2]int{start, len(p.hostOrder)}
}

// Host returns the named host, or nil.
func (p *Platform) Host(name string) *Host { return p.hosts[name] }

// Hosts returns every host in declaration order.
func (p *Platform) Hosts() []*Host {
	out := make([]*Host, 0, len(p.hostOrder))
	for _, n := range p.hostOrder {
		out = append(out, p.hosts[n])
	}
	return out
}

// NumHosts returns the host count.
func (p *Platform) NumHosts() int { return len(p.hostOrder) }

// Link returns the named link, or nil.
func (p *Platform) Link(name string) *Link { return p.links[name] }

// Links returns every link in declaration order.
func (p *Platform) Links() []*Link {
	out := make([]*Link, 0, len(p.linkOrder))
	for _, n := range p.linkOrder {
		out = append(out, p.links[n])
	}
	return out
}

// Role returns the topological role of a link.
func (p *Platform) Role(link string) LinkRole { return p.roles[link] }

// Zones returns every interior hierarchy node (grid, sites, clusters) in
// declaration order.
func (p *Platform) Zones() []*Zone {
	out := make([]*Zone, 0, len(p.zoneOrder))
	for _, n := range p.zoneOrder {
		out = append(out, p.zones[n])
	}
	return out
}

// Zone returns the named zone, or nil.
func (p *Platform) Zone(name string) *Zone { return p.zones[name] }

// Sites returns the site names in declaration order.
func (p *Platform) Sites() []string {
	var out []string
	for _, n := range p.zoneOrder {
		if p.zones[n].Kind == "site" {
			out = append(out, n)
		}
	}
	return out
}

// Clusters returns the cluster names in declaration order, optionally
// restricted to one site ("" for all).
func (p *Platform) Clusters(site string) []string {
	var out []string
	for _, n := range p.zoneOrder {
		z := p.zones[n]
		if z.Kind == "cluster" && (site == "" || z.Parent == site) {
			out = append(out, n)
		}
	}
	return out
}

// HostsOfCluster returns the host names of one cluster in order, or nil
// for an unknown cluster. The slice is the caller's own.
func (p *Platform) HostsOfCluster(cluster string) []string {
	span, ok := p.clusterHosts[cluster]
	if !ok {
		return nil
	}
	return slices.Clone(p.hostOrder[span[0]:span[1]])
}

// HostLink returns the private link name of a host.
func (p *Platform) HostLink(host string) string { return p.hostLink[host] }

// Route returns the ordered links a flow from src to dst traverses:
//
//	same host:            (no links)
//	same cluster:         src link, cluster backbone, dst link
//	same site:            … cluster uplinks and the site backbone …
//	different sites:      … site uplinks on both ends …
//
// Routes are symmetric: Route(a,b) is the reverse of Route(b,a).
func (p *Platform) Route(src, dst string) ([]*Link, error) {
	hs, ok := p.hosts[src]
	if !ok {
		return nil, fmt.Errorf("platform: unknown host %q", src)
	}
	hd, ok := p.hosts[dst]
	if !ok {
		return nil, fmt.Errorf("platform: unknown host %q", dst)
	}
	if src == dst {
		return nil, nil
	}
	var names []string
	names = append(names, p.hostLink[src], p.clusterBackbone[hs.Cluster])
	switch {
	case hs.Cluster == hd.Cluster:
		// Stay inside the cluster: src link, shared backbone, dst link.
		names = append(names, p.hostLink[dst])
		return p.resolveLinks(names), nil
	case hs.Site == hd.Site:
		names = append(names,
			p.clusterUplink[hs.Cluster],
			p.siteBackbone[hs.Site],
			p.clusterUplink[hd.Cluster])
	default:
		names = append(names,
			p.clusterUplink[hs.Cluster],
			p.siteBackbone[hs.Site],
			p.siteUplink[hs.Site],
			p.siteUplink[hd.Site],
			p.siteBackbone[hd.Site],
			p.clusterUplink[hd.Cluster])
	}
	names = append(names, p.clusterBackbone[hd.Cluster], p.hostLink[dst])
	return p.resolveLinks(names), nil
}

func (p *Platform) resolveLinks(names []string) []*Link {
	out := make([]*Link, len(names))
	for i, n := range names {
		out[i] = p.links[n]
	}
	return out
}

// Bottleneck returns the smallest link bandwidth along the route between
// two hosts, i.e. the effective bandwidth an uncontended flow would get.
// A flow on the same host has no network bottleneck; Bottleneck then
// returns +Inf-like very large value represented as 0 meaning "no limit"
// would be error-prone, so it returns the smallest host-link bandwidth
// instead (local copies are effectively instantaneous in our simulator).
func (p *Platform) Bottleneck(src, dst string) (float64, error) {
	route, err := p.Route(src, dst)
	if err != nil {
		return 0, err
	}
	if len(route) == 0 {
		return p.links[p.hostLink[src]].Bandwidth, nil
	}
	min := route[0].Bandwidth
	for _, l := range route[1:] {
		if l.Bandwidth < min {
			min = l.Bandwidth
		}
	}
	return min, nil
}

// Latency returns the summed latency along the route between two hosts.
func (p *Platform) Latency(src, dst string) (float64, error) {
	route, err := p.Route(src, dst)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, l := range route {
		sum += l.Latency
	}
	return sum, nil
}

// Edge is an undirected adjacency in the topology graph the visualization
// draws: hosts attach to their private links, links chain up the
// hierarchy, and site uplinks meet at the grid core.
type Edge struct {
	A, B string
}

// CoreName returns the name of the pseudo-resource representing the grid
// core router where the site uplinks meet. It carries no metrics; it only
// anchors the topology graph.
func (p *Platform) CoreName() string { return "core:" + p.Root }

// EdgeList returns the adjacency of the full topology graph:
//
//	host — host link — cluster backbone — cluster uplink — site backbone
//	— site uplink — grid core
//
// in deterministic order.
func (p *Platform) EdgeList() []Edge {
	var out []Edge
	for _, hn := range p.hostOrder {
		h := p.hosts[hn]
		out = append(out,
			Edge{hn, p.hostLink[hn]},
			Edge{p.hostLink[hn], p.clusterBackbone[h.Cluster]})
	}
	for _, zn := range p.zoneOrder {
		z := p.zones[zn]
		switch z.Kind {
		case "cluster":
			out = append(out,
				Edge{p.clusterBackbone[zn], p.clusterUplink[zn]},
				Edge{p.clusterUplink[zn], p.siteBackbone[z.Parent]})
		case "site":
			out = append(out,
				Edge{p.siteBackbone[zn], p.siteUplink[zn]},
				Edge{p.siteUplink[zn], p.CoreName()})
		}
	}
	return out
}
