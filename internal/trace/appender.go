package trace

// Appender is a write-optimized front end to a Trace for bulk ingestion.
// Readers apply millions of Set/Add events, usually many in a row against
// the same (resource, metric) pair; the Appender memoizes the last
// resolved timeline so the common case skips the two map lookups of
// Trace.ensure. Semantics — including error cases, their message texts,
// and the quirk that a rejected non-finite value still materializes the
// timeline — are identical to Trace.Set and Trace.Add, so readers can use
// either interchangeably and produce the same trace.
//
// Like the Trace it wraps, an Appender is not safe for concurrent use.
type Appender struct {
	tr      *Trace
	lastKey varKey
	lastTL  *Timeline
}

// NewAppender returns an appender writing into tr.
func (tr *Trace) NewAppender() *Appender { return &Appender{tr: tr} }

func (a *Appender) timeline(resource, metric string) (*Timeline, error) {
	if a.lastTL != nil && a.lastKey.resource == resource && a.lastKey.metric == metric {
		return a.lastTL, nil
	}
	tl, err := a.tr.ensure(resource, metric)
	if err != nil {
		return nil, err
	}
	a.lastKey = varKey{resource, metric}
	a.lastTL = tl
	return tl, nil
}

// Set is Trace.Set through the memoized timeline lookup.
func (a *Appender) Set(t float64, resource, metric string, v float64) error {
	tl, err := a.timeline(resource, metric)
	if err != nil {
		return err
	}
	return a.tr.put(tl, t, resource, metric, v)
}

// Add is Trace.Add through the memoized timeline lookup.
func (a *Appender) Add(t float64, resource, metric string, dv float64) error {
	tl, err := a.timeline(resource, metric)
	if err != nil {
		return err
	}
	return a.tr.put(tl, t, resource, metric, tl.At(t)+dv)
}
