package paje

// readReference is the original line-at-a-time Paje reader, kept verbatim
// as the behavioural oracle for the pipelined production reader: the
// differential fuzz target and the determinism tests assert that Read
// produces an identical trace — or an identical error — on every input,
// at every Parallelism setting. Do not optimize this file; its value is
// being the simple, obviously-sequential reference.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"viva/internal/trace"
)

type refEventDef struct {
	name   string
	fields []string
}

type refParser struct {
	defs map[string]*refEventDef

	tr *trace.Trace

	typeKind map[string]string
	typeName map[string]string

	containers map[string]string
	nameUsed   map[string]bool

	entityValues map[string]string

	stacks map[string][]string

	lineno int
}

// readReference parses a Paje trace with the historical implementation.
func readReference(r io.Reader) (*trace.Trace, error) {
	p := &refParser{
		defs:         make(map[string]*refEventDef),
		tr:           trace.New(),
		typeKind:     make(map[string]string),
		typeName:     make(map[string]string),
		containers:   make(map[string]string),
		nameUsed:     make(map[string]bool),
		entityValues: make(map[string]string),
		stacks:       make(map[string][]string),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	var current *refEventDef
	var currentID string
	for sc.Scan() {
		p.lineno++
		line := strings.TrimRight(sc.Text(), "\r\n")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		if strings.HasPrefix(trimmed, "%") {
			rest := strings.TrimSpace(trimmed[1:])
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			switch fields[0] {
			case "EventDef":
				if len(fields) < 3 {
					return nil, p.errf("EventDef wants a name and an id")
				}
				current = &refEventDef{name: fields[1]}
				currentID = fields[2]
			case "EndEventDef":
				if current == nil {
					return nil, p.errf("EndEventDef without EventDef")
				}
				p.defs[currentID] = current
				current = nil
			default:
				if current == nil {
					return nil, p.errf("field declaration outside EventDef")
				}
				current.fields = append(current.fields, fields[0])
			}
			continue
		}
		if err := p.event(trimmed); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := p.tr.Validate(); err != nil {
		return nil, err
	}
	return p.tr, nil
}

func (p *refParser) errf(format string, args ...any) error {
	return fmt.Errorf("paje: line %d: %s", p.lineno, fmt.Sprintf(format, args...))
}

func (p *refParser) wrap(err error) error {
	if err != nil {
		return fmt.Errorf("paje: line %d: %w", p.lineno, err)
	}
	return nil
}

// refTokenize splits an event line into fields, honouring double quotes.
func refTokenize(line string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '"':
			if inQuote {
				out = append(out, cur.String())
				cur.Reset()
				inQuote = false
			} else {
				flush()
				inQuote = true
			}
		case (c == ' ' || c == '\t') && !inQuote:
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return out
}

func (p *refParser) event(line string) error {
	tokens := refTokenize(line)
	if len(tokens) == 0 {
		return nil
	}
	def, ok := p.defs[tokens[0]]
	if !ok {
		return p.errf("unknown event id %q", tokens[0])
	}
	if len(tokens)-1 < len(def.fields) {
		return p.errf("%s wants %d fields, got %d", def.name, len(def.fields), len(tokens)-1)
	}
	get := func(field string) string {
		for i, f := range def.fields {
			if strings.EqualFold(f, field) {
				return tokens[1+i]
			}
		}
		return ""
	}
	getTime := func() (float64, error) {
		s := get("Time")
		if s == "" {
			return 0, p.errf("%s lacks a Time field", def.name)
		}
		t, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, p.errf("bad time %q", s)
		}
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return 0, p.errf("non-finite time %q", s)
		}
		return t, nil
	}

	switch def.name {
	case "PajeDefineContainerType":
		p.defineType(get("Alias"), get("Name"), "container")
	case "PajeDefineVariableType":
		p.defineType(get("Alias"), get("Name"), "variable")
	case "PajeDefineStateType":
		p.defineType(get("Alias"), get("Name"), "state")
	case "PajeDefineEventType", "PajeDefineLinkType":
		p.defineType(get("Alias"), get("Name"), "other")
	case "PajeDefineEntityValue":
		alias := get("Alias")
		name := get("Name")
		if name == "" {
			name = alias
		}
		p.entityValues[alias] = name

	case "PajeCreateContainer":
		return p.createContainer(get("Alias"), get("Name"), get("Type"), get("Container"))
	case "PajeDestroyContainer":
		return nil

	case "PajeSetVariable", "PajeAddVariable", "PajeSubVariable":
		t, err := getTime()
		if err != nil {
			return err
		}
		res, err := p.container(get("Container"))
		if err != nil {
			return err
		}
		metric := p.metricName(get("Type"))
		v, err := strconv.ParseFloat(get("Value"), 64)
		if err != nil {
			return p.errf("bad value %q", get("Value"))
		}
		switch def.name {
		case "PajeSetVariable":
			return p.wrap(p.tr.Set(t, res, metric, v))
		case "PajeAddVariable":
			return p.wrap(p.tr.Add(t, res, metric, v))
		default:
			return p.wrap(p.tr.Add(t, res, metric, -v))
		}

	case "PajeSetState":
		t, err := getTime()
		if err != nil {
			return err
		}
		res, err := p.container(get("Container"))
		if err != nil {
			return err
		}
		p.stacks[res] = p.stacks[res][:0]
		return p.wrap(p.tr.SetState(t, res, p.stateValue(get("Value"))))

	case "PajePushState":
		t, err := getTime()
		if err != nil {
			return err
		}
		res, err := p.container(get("Container"))
		if err != nil {
			return err
		}
		v := p.stateValue(get("Value"))
		p.stacks[res] = append(p.stacks[res], v)
		return p.wrap(p.tr.SetState(t, res, v))

	case "PajePopState":
		t, err := getTime()
		if err != nil {
			return err
		}
		res, err := p.container(get("Container"))
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

	case "PajeStartLink", "PajeEndLink", "PajeNewEvent":
		return nil
	default:
		return p.errf("unsupported event %q", def.name)
	}
	return nil
}

func (p *refParser) defineType(alias, name, kind string) {
	if name == "" {
		name = alias
	}
	p.typeKind[alias] = kind
	p.typeName[alias] = name
	if alias != name {
		p.typeKind[name] = kind
		p.typeName[name] = name
	}
}

func (p *refParser) resourceType(pajeType string) string {
	name := strings.ToLower(p.typeName[pajeType])
	if name == "" {
		name = strings.ToLower(pajeType)
	}
	switch {
	case strings.Contains(name, "link"):
		return trace.TypeLink
	case strings.Contains(name, "host"), strings.Contains(name, "machine"), strings.Contains(name, "node"):
		return trace.TypeHost
	case strings.Contains(name, "site"), strings.Contains(name, "cluster"),
		strings.Contains(name, "grid"), strings.Contains(name, "platform"),
		strings.Contains(name, "zone"):
		return trace.TypeGroup
	default:
		return name
	}
}

func (p *refParser) metricName(pajeType string) string {
	name := strings.ToLower(p.typeName[pajeType])
	if name == "" {
		name = strings.ToLower(pajeType)
	}
	switch name {
	case "power", "speed":
		return trace.MetricPower
	case "power_used", "speed_used", "usage":
		return trace.MetricUsage
	case "bandwidth":
		return trace.MetricBandwidth
	case "bandwidth_used", "traffic":
		return trace.MetricTraffic
	default:
		return name
	}
}

func (p *refParser) stateValue(v string) string {
	if name, ok := p.entityValues[v]; ok {
		return name
	}
	return v
}

func (p *refParser) createContainer(alias, name, pajeType, parentRef string) error {
	if name == "" {
		name = alias
	}
	parent := ""
	if parentRef != "" && parentRef != "0" {
		res, err := p.container(parentRef)
		if err != nil {
			return err
		}
		parent = res
	}
	resName := name
	if p.nameUsed[resName] && parent != "" {
		resName = parent + "/" + name
	}
	for p.nameUsed[resName] {
		resName += "'"
	}
	p.nameUsed[resName] = true
	if err := p.tr.DeclareResource(resName, p.resourceType(pajeType), parent); err != nil {
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

func (p *refParser) container(ref string) (string, error) {
	if res, ok := p.containers[ref]; ok {
		return res, nil
	}
	return "", p.errf("unknown container %q", ref)
}
