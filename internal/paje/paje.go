// Package paje reads traces in the Paje file format — the format the real
// VIVA tool and its ecosystem (Paje, PajeNG, SimGrid's --cfg=tracing
// output) exchange — and converts them into this library's trace model, so
// traces produced by the original toolchain can be explored with this
// reproduction directly.
//
// The format is self-describing: a header of %EventDef blocks declares
// each event kind's numeric id and field layout; the body is one event per
// line. The subset implemented covers the type system
// (Define{Container,Variable,State}Type, DefineEntityValue), container
// lifecycle (Create/DestroyContainer), variables (Set/Add/SubVariable) and
// states (Set/Push/PopState). Link events are accepted and skipped:
// Paje links are message arrows, which this model derives from variables
// instead.
//
// Reading is organized as a two-stage pipeline (internal/ingest): a scan
// stage tokenizes lines into zero-copy byte slices — optionally on worker
// goroutines — and this package's sequential apply stage performs the
// stateful translation. Event definitions are compiled once into opcodes
// with resolved field positions, names are interned, and metric/type
// mappings are memoized, so the per-event cost is a few map probes and an
// amortized append. The apply stage consumes lines strictly in input
// order, which makes the result independent of the scan parallelism.
package paje

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"viva/internal/ingest"
	"viva/internal/trace"
)

// op is the compiled dispatch code of an event definition; resolving the
// event-name switch once per %EventDef (instead of per line) keeps the
// body loop on a dense switch.
type op uint8

const (
	opDefContainerType op = iota
	opDefVariableType
	opDefStateType
	opDefOtherType // event/link type definitions: recorded, not modelled
	opDefEntityValue
	opCreateContainer
	opDestroyContainer
	opSetVariable
	opAddVariable
	opSubVariable
	opSetState
	opPushState
	opPopState
	opSkip // StartLink/EndLink/NewEvent: accepted, not modelled
	opUnsupported
)

func opFor(name string) op {
	switch name {
	case "PajeDefineContainerType":
		return opDefContainerType
	case "PajeDefineVariableType":
		return opDefVariableType
	case "PajeDefineStateType":
		return opDefStateType
	case "PajeDefineEventType", "PajeDefineLinkType":
		return opDefOtherType
	case "PajeDefineEntityValue":
		return opDefEntityValue
	case "PajeCreateContainer":
		return opCreateContainer
	case "PajeDestroyContainer":
		return opDestroyContainer
	case "PajeSetVariable":
		return opSetVariable
	case "PajeAddVariable":
		return opAddVariable
	case "PajeSubVariable":
		return opSubVariable
	case "PajeSetState":
		return opSetState
	case "PajePushState":
		return opPushState
	case "PajePopState":
		return opPopState
	case "PajeStartLink", "PajeEndLink", "PajeNewEvent":
		return opSkip
	default:
		return opUnsupported
	}
}

// eventDef is one %EventDef block compiled for the apply loop: the opcode
// and the positions of the canonical fields (first case-insensitive
// match, like the historical per-access search; -1 when absent).
type eventDef struct {
	name   string
	op     op
	fields []string

	fTime, fAlias, fName, fType, fContainer, fValue int
}

// finish resolves the opcode and field positions once the definition is
// complete (EndEventDef).
func (d *eventDef) finish() {
	d.op = opFor(d.name)
	d.fTime, d.fAlias, d.fName, d.fType, d.fContainer, d.fValue = -1, -1, -1, -1, -1, -1
	for i, f := range d.fields {
		switch {
		case d.fTime < 0 && strings.EqualFold(f, "Time"):
			d.fTime = i
		case d.fAlias < 0 && strings.EqualFold(f, "Alias"):
			d.fAlias = i
		case d.fName < 0 && strings.EqualFold(f, "Name"):
			d.fName = i
		case d.fType < 0 && strings.EqualFold(f, "Type"):
			d.fType = i
		case d.fContainer < 0 && strings.EqualFold(f, "Container"):
			d.fContainer = i
		case d.fValue < 0 && strings.EqualFold(f, "Value"):
			d.fValue = i
		}
	}
}

// parser holds the apply-stage state.
type parser struct {
	defs map[string]*eventDef // event id -> definition

	tr  *trace.Trace
	app *trace.Appender
	in  *ingest.Interner

	// Paje type system: alias/name -> kind ("container", "variable",
	// "state") and human name.
	typeKind map[string]string
	typeName map[string]string

	// Memoized per-type-reference translations; flushed whenever a type
	// is (re)defined, since both derive from typeName.
	metricMemo map[string]string
	rtypeMemo  map[string]string

	// Containers: alias or name -> resource name in the output trace.
	containers map[string]string
	nameUsed   map[string]bool

	// Entity values (state names): alias -> display name.
	entityValues map[string]string

	// State stacks for Push/PopState, per resource.
	stacks map[string][]string

	current   *eventDef // open %EventDef block
	currentID string

	lineno int
	events int
}

func newParser() *parser {
	tr := trace.New()
	return &parser{
		defs:         make(map[string]*eventDef),
		tr:           tr,
		app:          tr.NewAppender(),
		in:           ingest.NewInterner(),
		typeKind:     make(map[string]string),
		typeName:     make(map[string]string),
		metricMemo:   make(map[string]string),
		rtypeMemo:    make(map[string]string),
		containers:   make(map[string]string),
		nameUsed:     make(map[string]bool),
		entityValues: make(map[string]string),
		stacks:       make(map[string][]string),
	}
}

// Read parses a Paje trace with default options (scan parallelism =
// GOMAXPROCS; the result is identical at any setting).
func Read(r io.Reader) (*trace.Trace, error) {
	return ReadWith(r, ingest.Options{})
}

// ReadWith parses a Paje trace with explicit ingestion options.
func ReadWith(r io.Reader, opt ingest.Options) (*trace.Trace, error) {
	p := newParser()
	err := ingest.Scan(r, ingest.DialectPaje, opt, p.line)
	ingest.Events.Add(uint64(p.events))
	if err != nil {
		return nil, err
	}
	if err := p.tr.Validate(); err != nil {
		return nil, err
	}
	return p.tr, nil
}

// line is the apply stage: it receives every input line, in order.
func (p *parser) line(lineno int, kind ingest.LineKind, toks [][]byte) error {
	p.lineno = lineno
	switch kind {
	case ingest.LineHeader:
		return p.header(toks)
	case ingest.LineEvent:
		p.events++
		return p.event(toks)
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("paje: line %d: %s", p.lineno, fmt.Sprintf(format, args...))
}

// wrap annotates a trace-layer error with the offending line number, so a
// rejected value deep in a large trace file is findable.
func (p *parser) wrap(err error) error {
	if err != nil {
		return fmt.Errorf("paje: line %d: %w", p.lineno, err)
	}
	return nil
}

// header handles one '%' line (EventDef / field / EndEventDef).
func (p *parser) header(toks [][]byte) error {
	switch {
	case string(toks[0]) == "EventDef":
		if len(toks) < 3 {
			return p.errf("EventDef wants a name and an id")
		}
		p.current = &eventDef{name: p.in.Intern(toks[1])}
		p.currentID = p.in.Intern(toks[2])
	case string(toks[0]) == "EndEventDef":
		if p.current == nil {
			return p.errf("EndEventDef without EventDef")
		}
		p.current.finish()
		p.defs[p.currentID] = p.current
		p.current = nil
	default:
		// A field declaration: "<name> <type>".
		if p.current == nil {
			return p.errf("field declaration outside EventDef")
		}
		p.current.fields = append(p.current.fields, p.in.Intern(toks[0]))
	}
	return nil
}

// arg returns the token at compiled field position i (nil when the
// definition lacks the field — indistinguishable from an empty token,
// exactly like the historical "" return).
func arg(args [][]byte, i int) []byte {
	if i < 0 {
		return nil
	}
	return args[i]
}

func (p *parser) getTime(def *eventDef, args [][]byte) (float64, error) {
	s := arg(args, def.fTime)
	if len(s) == 0 {
		return 0, p.errf("%s lacks a Time field", def.name)
	}
	t, err := strconv.ParseFloat(string(s), 64)
	if err != nil {
		return 0, p.errf("bad time %q", s)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return 0, p.errf("non-finite time %q", s)
	}
	return t, nil
}

// event dispatches one body line.
func (p *parser) event(toks [][]byte) error {
	def, ok := p.defs[string(toks[0])]
	if !ok {
		return p.errf("unknown event id %q", toks[0])
	}
	args := toks[1:]
	if len(args) < len(def.fields) {
		return p.errf("%s wants %d fields, got %d", def.name, len(def.fields), len(args))
	}

	switch def.op {
	case opDefContainerType:
		p.defineType(arg(args, def.fAlias), arg(args, def.fName), "container")
	case opDefVariableType:
		p.defineType(arg(args, def.fAlias), arg(args, def.fName), "variable")
	case opDefStateType:
		p.defineType(arg(args, def.fAlias), arg(args, def.fName), "state")
	case opDefOtherType:
		p.defineType(arg(args, def.fAlias), arg(args, def.fName), "other")
	case opDefEntityValue:
		alias := p.in.Intern(arg(args, def.fAlias))
		name := p.in.Intern(arg(args, def.fName))
		if name == "" {
			name = alias
		}
		p.entityValues[alias] = name

	case opCreateContainer:
		return p.createContainer(arg(args, def.fAlias), arg(args, def.fName),
			arg(args, def.fType), arg(args, def.fContainer))
	case opDestroyContainer:
		// Containers stay in the trace (the window simply ends); nothing
		// to do.
		return nil

	case opSetVariable, opAddVariable, opSubVariable:
		t, err := p.getTime(def, args)
		if err != nil {
			return err
		}
		res, err := p.container(arg(args, def.fContainer))
		if err != nil {
			return err
		}
		metric := p.metricName(arg(args, def.fType))
		vTok := arg(args, def.fValue)
		v, err := strconv.ParseFloat(string(vTok), 64)
		if err != nil {
			return p.errf("bad value %q", vTok)
		}
		switch def.op {
		case opSetVariable:
			return p.wrap(p.app.Set(t, res, metric, v))
		case opAddVariable:
			return p.wrap(p.app.Add(t, res, metric, v))
		default:
			return p.wrap(p.app.Add(t, res, metric, -v))
		}

	case opSetState:
		t, err := p.getTime(def, args)
		if err != nil {
			return err
		}
		res, err := p.container(arg(args, def.fContainer))
		if err != nil {
			return err
		}
		p.stacks[res] = p.stacks[res][:0]
		return p.wrap(p.tr.SetState(t, res, p.stateValue(arg(args, def.fValue))))

	case opPushState:
		t, err := p.getTime(def, args)
		if err != nil {
			return err
		}
		res, err := p.container(arg(args, def.fContainer))
		if err != nil {
			return err
		}
		v := p.stateValue(arg(args, def.fValue))
		p.stacks[res] = append(p.stacks[res], v)
		return p.wrap(p.tr.SetState(t, res, v))

	case opPopState:
		t, err := p.getTime(def, args)
		if err != nil {
			return err
		}
		res, err := p.container(arg(args, def.fContainer))
		if err != nil {
			return err
		}
		st := p.stacks[res]
		if len(st) > 0 {
			st = st[:len(st)-1]
			p.stacks[res] = st
		}
		top := ""
		if len(st) > 0 {
			top = st[len(st)-1]
		}
		return p.wrap(p.tr.SetState(t, res, top))

	case opSkip:
		// Message arrows and point events: accepted, not modelled.
		return nil
	default:
		return p.errf("unsupported event %q", def.name)
	}
	return nil
}

func (p *parser) defineType(aliasTok, nameTok []byte, kind string) {
	alias := p.in.Intern(aliasTok)
	name := p.in.Intern(nameTok)
	if name == "" {
		name = alias
	}
	p.typeKind[alias] = kind
	p.typeName[alias] = name
	if alias != name {
		p.typeKind[name] = kind
		p.typeName[name] = name
	}
	// Both memoized translations read typeName; a (re)definition may
	// change what a reference resolves to, so start over. Definitions are
	// a handful of lines per trace — correctness is worth the flush.
	clear(p.metricMemo)
	clear(p.rtypeMemo)
}

// resourceType maps a Paje container type to our resource type: names
// containing "link" become links, "host"/"machine"/"node" hosts, anything
// else keeps its lowercased Paje type name (groups stay groups through
// the hierarchy, so unknown types still aggregate fine).
func (p *parser) resourceType(typeTok []byte) string {
	if rt, ok := p.rtypeMemo[string(typeTok)]; ok {
		return rt
	}
	pajeType := p.in.Intern(typeTok)
	name := strings.ToLower(p.typeName[pajeType])
	if name == "" {
		name = strings.ToLower(pajeType)
	}
	rt := name
	switch {
	case strings.Contains(name, "link"):
		rt = trace.TypeLink
	case strings.Contains(name, "host"), strings.Contains(name, "machine"), strings.Contains(name, "node"):
		rt = trace.TypeHost
	case strings.Contains(name, "site"), strings.Contains(name, "cluster"),
		strings.Contains(name, "grid"), strings.Contains(name, "platform"),
		strings.Contains(name, "zone"):
		rt = trace.TypeGroup
	}
	p.rtypeMemo[pajeType] = rt
	return rt
}

func (p *parser) metricName(typeTok []byte) string {
	if m, ok := p.metricMemo[string(typeTok)]; ok {
		return m
	}
	pajeType := p.in.Intern(typeTok)
	name := strings.ToLower(p.typeName[pajeType])
	if name == "" {
		name = strings.ToLower(pajeType)
	}
	// Map SimGrid's conventional variable names onto ours.
	m := name
	switch name {
	case "power", "speed":
		m = trace.MetricPower
	case "power_used", "speed_used", "usage":
		m = trace.MetricUsage
	case "bandwidth":
		m = trace.MetricBandwidth
	case "bandwidth_used", "traffic":
		m = trace.MetricTraffic
	}
	p.metricMemo[pajeType] = m
	return m
}

func (p *parser) stateValue(vTok []byte) string {
	if name, ok := p.entityValues[string(vTok)]; ok {
		return name
	}
	return p.in.Intern(vTok)
}

func (p *parser) createContainer(aliasTok, nameTok, typeTok, parentTok []byte) error {
	alias := p.in.Intern(aliasTok)
	name := p.in.Intern(nameTok)
	if name == "" {
		name = alias
	}
	parent := ""
	if len(parentTok) != 0 && string(parentTok) != "0" {
		res, err := p.container(parentTok)
		if err != nil {
			return err
		}
		parent = res
	}
	// Ensure a unique resource name.
	resName := name
	if p.nameUsed[resName] && parent != "" {
		resName = parent + "/" + name
	}
	for p.nameUsed[resName] {
		resName += "'"
	}
	p.nameUsed[resName] = true
	if err := p.tr.DeclareResource(resName, p.resourceType(typeTok), parent); err != nil {
		return p.wrap(err)
	}
	if alias != "" {
		p.containers[alias] = resName
	}
	if _, taken := p.containers[name]; !taken {
		p.containers[name] = resName
	}
	return nil
}

func (p *parser) container(ref []byte) (string, error) {
	if res, ok := p.containers[string(ref)]; ok {
		return res, nil
	}
	return "", p.errf("unknown container %q", ref)
}
