package sim

import (
	"fmt"
	"math"
)

// pendingSend is a posted Put waiting for a matching receiver. Pending
// halves are pooled on the engine and recycled once matched or removed.
type pendingSend struct {
	comm     *Comm
	payload  any
	size     float64
	srcHost  string
	category string
}

// pendingRecv is a posted Get waiting for a matching sender.
type pendingRecv struct {
	comm    *Comm
	dstHost string
}

// mailbox matches senders and receivers in FIFO order, like SimGrid
// mailboxes. Each queue is consumed through a head cursor and reset when
// drained, so the backing arrays are reused instead of leaking via
// front-reslices.
type mailbox struct {
	name     string
	sends    []*pendingSend
	sendHead int
	recvs    []*pendingRecv
	recvHead int
}

func (mb *mailbox) popSend() *pendingSend {
	ps := mb.sends[mb.sendHead]
	mb.sends[mb.sendHead] = nil
	mb.sendHead++
	if mb.sendHead == len(mb.sends) {
		mb.sends = mb.sends[:0]
		mb.sendHead = 0
	}
	return ps
}

func (mb *mailbox) popRecv() *pendingRecv {
	pr := mb.recvs[mb.recvHead]
	mb.recvs[mb.recvHead] = nil
	mb.recvHead++
	if mb.recvHead == len(mb.recvs) {
		mb.recvs = mb.recvs[:0]
		mb.recvHead = 0
	}
	return pr
}

func (e *Engine) mbox(name string) *mailbox {
	mb, ok := e.mailboxes[name]
	if !ok {
		mb = &mailbox{name: name}
		e.mailboxes[name] = mb
	}
	return mb
}

func (e *Engine) acquireSend() *pendingSend {
	if n := len(e.psPool); n > 0 {
		ps := e.psPool[n-1]
		e.psPool[n-1] = nil
		e.psPool = e.psPool[:n-1]
		return ps
	}
	return &pendingSend{}
}

func (e *Engine) releaseSend(ps *pendingSend) {
	*ps = pendingSend{}
	e.psPool = append(e.psPool, ps)
}

func (e *Engine) acquireRecv() *pendingRecv {
	if n := len(e.prPool); n > 0 {
		pr := e.prPool[n-1]
		e.prPool[n-1] = nil
		e.prPool = e.prPool[:n-1]
		return pr
	}
	return &pendingRecv{}
}

func (e *Engine) releaseRecv(pr *pendingRecv) {
	*pr = pendingRecv{}
	e.prPool = append(e.prPool, pr)
}

func (e *Engine) put(a *Actor, mboxName string, payload any, size float64) *Comm {
	if !(size >= 0) || math.IsInf(size, 1) {
		panic(fmt.Sprintf("sim: message size %g is not a finite non-negative number", size))
	}
	mb := e.mbox(mboxName)
	comm := &Comm{eng: e, mb: mb, payload: payload}
	ps := e.acquireSend()
	ps.comm = comm
	ps.payload = payload
	ps.size = size
	ps.srcHost = a.host.Name
	ps.category = a.category
	if mb.recvHead < len(mb.recvs) {
		pr := mb.popRecv()
		e.match(ps, pr)
		e.releaseSend(ps)
		e.releaseRecv(pr)
		return comm
	}
	mb.sends = append(mb.sends, ps)
	return comm
}

func (e *Engine) get(a *Actor, mboxName string) *Comm {
	mb := e.mbox(mboxName)
	comm := &Comm{eng: e, mb: mb}
	pr := e.acquireRecv()
	pr.comm = comm
	pr.dstHost = a.host.Name
	if mb.sendHead < len(mb.sends) {
		ps := mb.popSend()
		e.match(ps, pr)
		e.releaseSend(ps)
		e.releaseRecv(pr)
		return comm
	}
	mb.recvs = append(mb.recvs, pr)
	return comm
}

// remove withdraws the unmatched half belonging to comm. It reports
// whether anything was removed.
func (mb *mailbox) remove(cm *Comm) bool {
	for i := mb.sendHead; i < len(mb.sends); i++ {
		if mb.sends[i].comm == cm {
			ps := mb.sends[i]
			copy(mb.sends[i:], mb.sends[i+1:])
			last := len(mb.sends) - 1
			mb.sends[last] = nil
			mb.sends = mb.sends[:last]
			if mb.sendHead == len(mb.sends) {
				mb.sends = mb.sends[:0]
				mb.sendHead = 0
			}
			cm.eng.releaseSend(ps)
			return true
		}
	}
	for i := mb.recvHead; i < len(mb.recvs); i++ {
		if mb.recvs[i].comm == cm {
			pr := mb.recvs[i]
			copy(mb.recvs[i:], mb.recvs[i+1:])
			last := len(mb.recvs) - 1
			mb.recvs[last] = nil
			mb.recvs = mb.recvs[:last]
			if mb.recvHead == len(mb.recvs) {
				mb.recvs = mb.recvs[:0]
				mb.recvHead = 0
			}
			cm.eng.releaseRecv(pr)
			return true
		}
	}
	return false
}

// route resolves and caches the platform route between two hosts: the
// link resources crossed and the summed base latency. Routes are static,
// so each ordered pair is resolved at most once per engine; standing
// latency spikes are applied per-match on top of the cached base.
func (e *Engine) route(src, dst string) (routeInfo, error) {
	key := HostPair{Src: src, Dst: dst}
	if ri, ok := e.routes[key]; ok {
		return ri, nil
	}
	route, err := e.plat.Route(src, dst)
	if err != nil {
		return routeInfo{}, err
	}
	var ri routeInfo
	for _, l := range route {
		ri.links = append(ri.links, e.links[l.Name])
		ri.latency += l.Latency
	}
	e.routes[key] = ri
	return ri, nil
}

// match pairs a posted send with a posted receive and starts the transfer
// over the platform route between their hosts.
func (e *Engine) match(ps *pendingSend, pr *pendingRecv) {
	ri, err := e.route(ps.srcHost, pr.dstHost)
	if err != nil {
		// A broken platform description: fail the communication so both
		// sides wake with an error, and surface it through Run.
		err = fmt.Errorf("sim: no route %s -> %s: %w", ps.srcHost, pr.dstHost, err)
		e.fail(err)
		act := e.acquireActivity()
		act.kind = actComm
		act.failure = err
		wireComm(act, ps, pr)
		e.complete(act)
		return
	}
	latency := ri.latency
	if len(e.extraLatency) > 0 {
		for _, l := range ri.links {
			latency += e.extraLatency[l.name]
		}
	}
	act := e.acquireActivity()
	act.kind = actComm
	act.category = ps.category
	act.resources = append(act.resources, ri.links...)
	act.remaining = ps.size
	act.delay = latency
	act.payload = ps.payload
	act.srcHost = ps.srcHost
	act.dstHost = pr.dstHost
	act.totalBytes = ps.size
	// Same-host transfers have no links and no latency: they complete
	// instantly, which startActivity handles.
	wireComm(act, ps, pr)
	e.startActivity(act)
}

// wireComm binds the matched activity to both Comm handles and moves
// their pending waiters onto it.
func wireComm(act *activity, ps *pendingSend, pr *pendingRecv) {
	ps.comm.act = act
	ps.comm.matched = true
	pr.comm.act = act
	pr.comm.matched = true
	pr.comm.payload = ps.payload
	act.comms[0] = ps.comm
	act.comms[1] = pr.comm
	for _, w := range ps.comm.pendingWaiters {
		act.addWaiter(w)
	}
	for _, w := range pr.comm.pendingWaiters {
		act.addWaiter(w)
	}
	ps.comm.pendingWaiters = nil
	pr.comm.pendingWaiters = nil
}
