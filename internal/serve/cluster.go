package serve

// Node-mode hooks for clustered deployments: a readiness-aware health
// endpoint, a follower catch-up endpoint that streams the node's WAL
// over HTTP in the log's own frame format, and the apply path a
// replication puller feeds. The router tier (internal/cluster) builds
// on exactly these three surfaces; a standalone daemon exposes them
// too, they just have no callers.

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ssdfail/internal/trace"
	"ssdfail/internal/wal"
)

const (
	// DefaultStreamBytes caps one catch-up response body.
	DefaultStreamBytes = 1 << 20
	maxStreamBytes     = 8 << 20
)

// errStreamFull ends a stream pass once the response budget is spent.
var errStreamFull = errors.New("serve: stream response budget reached")

// ApplyReplicated applies one record pulled from a primary's WAL
// stream. It takes the node's normal durable path (journaled when a
// WAL is configured), so a promoted follower has its own recoverable
// log. The bool reports whether the record was newly applied: store
// conflicts — the record or a newer day already present, the benign
// overlap of re-pulls after a restart — are skipped, not errors. An
// error wrapping ErrJournal means the record could not be made durable
// and the puller must not advance past it.
func (s *Server) ApplyReplicated(id uint32, model trace.Model, rec trace.DayRecord) (bool, error) {
	switch err := s.commit(id, model, rec, nil); {
	case err == nil:
		s.replicaApplied.Inc()
		s.tail.wake() // a follower chained behind this one
		return true, nil
	case errors.Is(err, ErrJournal):
		return false, err
	default:
		s.replicaSkipped.Inc()
		return false, nil
	}
}

// handleHealth is the cluster readiness probe. By the time this
// handler exists the server has finished WAL replay (New is
// synchronous), so it always reports ready; during recovery the
// listener answers through a cluster gate that reports "starting"
// instead, and routers only trust a 200 with status ready.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	_, info, ok := s.registry.Current()
	resp := map[string]any{
		"status":       "ready",
		"drives":       s.store.Len(),
		"model_loaded": ok,
	}
	if s.cfg.NodeName != "" {
		resp["node"] = s.cfg.NodeName
	}
	if ok {
		resp["model_version"] = info.Version
	}
	s.walHealth(resp)
	if s.journal != nil {
		resp["replica_applied"] = s.replicaApplied.Value()
	}
	writeJSON(w, http.StatusOK, resp)
}

// tailSignal wakes parked catch-up requests. A request takes the
// current channel with watch before it looks at the log, and parks on it
// only if the log had nothing for it: a wake that lands between the look
// and the park has already closed the channel the request holds.
type tailSignal struct {
	mu      sync.Mutex
	ch      chan struct{} // nil until a request watches; wake closes and drops it
	drained bool
}

// watch returns the channel the next wake closes, or nil once drained.
func (t *tailSignal) watch() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.drained {
		return nil
	}
	if t.ch == nil {
		t.ch = make(chan struct{})
	}
	return t.ch
}

// wake releases every request watching now; with none it costs one
// uncontended lock.
func (t *tailSignal) wake() {
	t.mu.Lock()
	if t.ch != nil {
		close(t.ch)
		t.ch = nil
	}
	t.mu.Unlock()
}

func (t *tailSignal) drain() {
	t.mu.Lock()
	t.drained = true
	t.mu.Unlock()
	t.wake()
}

// handleWALStream serves the follower catch-up wire: intact WAL frames
// with LSN >= from, re-framed with explicit LSNs, up to max_bytes per
// response. Every acknowledged record is eligible immediately; an empty
// 200 body means the follower is caught up. 410 Gone means the position
// was pruned by a snapshot and the follower cannot catch up from the log
// alone.
//
// With wait_ms, a request that finds nothing at from parks — for at most
// that long, trace.MaxStreamWait, and the request deadline — until an ingest
// request finishes (or a replicated record is applied, or the server
// drains), then looks once more and answers with what it finds. Without
// wait_ms it never blocks.
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		writeError(w, http.StatusConflict, "durability disabled: daemon runs without a WAL")
		return
	}
	from := uint64(0)
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad from: "+err.Error())
			return
		}
		from = n
	}
	maxBytes, err := queryInt(r, "max_bytes", DefaultStreamBytes)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if maxBytes <= 0 || maxBytes > maxStreamBytes {
		maxBytes = maxStreamBytes
	}
	waitMS, err := queryInt(r, "wait_ms", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Clamped as a count first: a huge wait_ms must not overflow into a
	// negative duration.
	wait := time.Duration(min(max(waitMS, 0), int(trace.MaxStreamWait/time.Millisecond))) * time.Millisecond

	var woken <-chan struct{}
	if wait > 0 {
		woken = s.tail.watch()
	}
	frames, err := s.streamFrames(from, maxBytes)
	if err == nil && len(frames) == 0 && woken != nil {
		s.park(r.Context(), w, woken, wait)
		frames, err = s.streamFrames(from, maxBytes)
	}
	if err != nil {
		if errors.Is(err, wal.ErrPruned) {
			writeError(w, http.StatusGone, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.walStreamed.Add(uint64(len(frames)))
	// Read after the frames, so it is never behind what they carry.
	w.Header().Set(trace.HeaderWALLastLSN, strconv.FormatUint(s.journal.LastLSN(), 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	//ssdlint:allow droppederr catch-up response write failed means the follower hung up; it re-polls from its own cursor
	w.Write(frames)
}

// streamFrames returns the log's frames from the given position in wire
// form, stopping once they fill maxBytes.
func (s *Server) streamFrames(from uint64, maxBytes int) ([]byte, error) {
	var out []byte
	_, err := s.journal.StreamFrom(from, func(lsn uint64, payload []byte) error {
		out = trace.AppendStreamFrame(out, lsn, payload)
		if len(out) >= maxBytes {
			return errStreamFull
		}
		return nil
	})
	if errors.Is(err, errStreamFull) {
		err = nil
	}
	return out, err
}

// park holds a catch-up request until woken is closed, wait passes or
// the request ends, and marks the reply as parked.
func (s *Server) park(ctx context.Context, w http.ResponseWriter, woken <-chan struct{}, wait time.Duration) {
	begin := s.now()
	fire, stop := s.parkTimer(wait)
	defer stop()
	s.streamParking.Add(1)
	select {
	case <-woken:
		s.streamWakeups.Inc()
	case <-fire:
	case <-ctx.Done():
	}
	s.streamParking.Add(-1)
	if sw, ok := w.(*statusWriter); ok {
		sw.parked = s.now().Sub(begin)
	}
	w.Header().Set(trace.HeaderWALParked, "1")
}
