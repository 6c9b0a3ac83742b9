package server

import (
	"bytes"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"viva/internal/obs"
	"viva/internal/stream"
)

// SSE-layer observability: evictions are streams the server killed for
// not draining (write deadline tripped), as opposed to clients leaving.
var obsStreamEvictions = obs.Default.Counter("viva_stream_evictions_total",
	"SSE subscribers evicted by write deadlines (stalled peers).")

// The last two hops of the live path are observed here because only the
// HTTP layer sees the client socket: the write stage (socket write +
// flush of one SSE chunk, emitted as obs.StageWrite) and the
// per-subscriber delivery lag (snapshot publish stamp → the moment its
// bytes reached the client write, the end-to-end "how stale was what
// this client just got").
var obsDeliveryLag = obs.Default.Histogram("viva_stream_delivery_lag_seconds",
	"Per-subscriber snapshot age at client write time (publish stamp to flushed write).", nil)

// Stream-route timing defaults; the Server fields of the same names
// override them (tests shorten them drastically).
const (
	defaultStreamWriteTimeout = 5 * time.Second
	defaultHeartbeatInterval  = 15 * time.Second
)

func (s *Server) streamWriteTimeout() time.Duration {
	if s.StreamWriteTimeout > 0 {
		return s.StreamWriteTimeout
	}
	return defaultStreamWriteTimeout
}

func (s *Server) heartbeatInterval() time.Duration {
	if s.HeartbeatInterval > 0 {
		return s.HeartbeatInterval
	}
	return defaultHeartbeatInterval
}

// handleStream serves the primary live stream; handleSelfStream the
// meta-trace of the pipeline's own stage spans. Same SSE machinery,
// different hub.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.serveStream(w, r, s.stream)
}

func (s *Server) handleSelfStream(w http.ResponseWriter, r *http.Request) {
	s.serveStream(w, r, s.selfStream)
}

// serveStream is the SSE face of a live hub: one long-lived response
// carrying "full", "delta", "gap" and terminal "shutdown" events. Every
// data payload is a shared immutable snapshot encoded once by the
// publisher; this handler only frames bytes. Flow control is entirely
// non-blocking for the publisher — a slow client's ring drops to latest
// and the skip count arrives as a gap event; a stalled client trips the
// per-write deadline and is evicted. Reconnecting clients send the last
// sequence number they saw as Last-Event-ID and get either the missed
// deltas (in-window) or a fresh full snapshot.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, st *stream.Stream) {
	if st == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no live stream attached"})
		return
	}
	hub := st.Hub

	// Last-Event-ID is the standard header; the query parameter is a
	// convenience for curl and the browser EventSource constructor URL.
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("last_event_id")
	}
	var lastSeq uint64
	if lastID != "" {
		if v, err := strconv.ParseUint(lastID, 10, 64); err == nil {
			lastSeq = v
		}
	}

	sub, err := hub.Subscribe(lastSeq)
	if err != nil {
		// Admission control: the hub is full (or closing). Tell the
		// client when to come back rather than letting it pile on.
		slog.Debug("server: stream subscription refused",
			"path", r.URL.Path, "seq", hub.Seq(), "err", err)
		w.Header().Set("Retry-After", "2")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	}
	defer hub.Unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	rc := http.NewResponseController(w)
	if err := s.streamWrite(w, rc, []byte("retry: 2000\n\n")); err != nil {
		return
	}

	hb := time.NewTicker(s.heartbeatInterval())
	defer hb.Stop()
	var (
		buf   []*stream.Snapshot
		frame bytes.Buffer
	)
	for {
		select {
		case <-r.Context().Done():
			// Client went away on its own; not an eviction.
			return
		case <-hb.C:
			// Heartbeats keep intermediaries from idling the connection
			// out and, with the write deadline, detect dead peers even
			// when no snapshots flow.
			if err := s.streamWrite(w, rc, []byte(":hb\n\n")); err != nil {
				s.evict(sub, hub.Seq(), r.URL.Path, err)
				return
			}
		case <-sub.Notify():
			snaps, dropped, closed := sub.Take(buf)
			buf = snaps[:0]
			frame.Reset()
			if dropped > 0 {
				// The ring coalesced: tell the client how many ticks it
				// skipped. No id line — the client's Last-Event-ID must
				// keep naming a real snapshot.
				obs.Flight.Record(obs.FlightGap, hub.Seq(), int64(dropped), sub.ID())
				frame.WriteString("event: gap\ndata: {\"dropped\":")
				frame.WriteString(strconv.FormatUint(dropped, 10))
				frame.WriteString("}\n\n")
			}
			for _, sn := range snaps {
				if sn.Full {
					frame.WriteString("event: full\n")
				} else {
					frame.WriteString("event: delta\n")
				}
				frame.WriteString("id: ")
				frame.WriteString(strconv.FormatUint(sn.Seq, 10))
				frame.WriteString("\ndata: ")
				frame.Write(sn.Data)
				frame.WriteString("\n\n")
			}
			if frame.Len() > 0 {
				startNs := obs.NowNs()
				if err := s.streamWrite(w, rc, frame.Bytes()); err != nil {
					s.evict(sub, hub.Seq(), r.URL.Path, err)
					return
				}
				wroteNs := obs.NowNs()
				if st != s.selfStream {
					// The self-stream's writes stay out of the fan-out
					// it drains, like its publisher's hops.
					obs.Frames.Emit(obs.StageWrite, wroteNs-startNs)
				}
				// Delivery lag closes the source→client chain: each
				// snapshot's publish stamp against the moment its bytes
				// were flushed toward this subscriber.
				for _, sn := range snaps {
					if sn.PubNs > 0 {
						obsDeliveryLag.Observe(float64(wroteNs-sn.PubNs) / 1e9)
					}
				}
			}
			if closed {
				// Graceful shutdown: a terminal frame so clients know
				// not to auto-reconnect into the dying server.
				_ = s.streamWrite(w, rc, []byte("event: shutdown\ndata: {}\n\n"))
				return
			}
		}
	}
}

// evict accounts for one stalled-peer eviction: the counter, a flight
// event, and a log line carrying the tick seq so logs join the traces.
func (s *Server) evict(sub *stream.Subscriber, seq uint64, path string, err error) {
	obsStreamEvictions.Inc()
	obs.Flight.Record(obs.FlightEvict, seq, 0, sub.ID())
	slog.Info("server: stream subscriber evicted",
		"path", path, "seq", seq, "sub", sub.ID(), "err", err)
}

// streamWrite writes one SSE chunk under a fresh write deadline and
// flushes it. The rolling deadline is what replaces the server-wide
// WriteTimeout for this route: a healthy stream renews it forever, a
// stalled peer exceeds it once its socket buffers fill.
func (s *Server) streamWrite(w http.ResponseWriter, rc *http.ResponseController, b []byte) error {
	_ = rc.SetWriteDeadline(time.Now().Add(s.streamWriteTimeout()))
	if _, err := w.Write(b); err != nil {
		return err
	}
	return rc.Flush()
}
