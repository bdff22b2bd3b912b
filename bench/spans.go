package bench

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Request; Parent is the span that caused this one (0 for a
// root). Times are offsets from the recorder's epoch.
type Span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent,omitempty"`
	Request int           `json:"request,omitempty"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

// Dur is the span's length.
func (s *Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the pass ends; nothing is
// written while a measurement runs.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts a recorder whose epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Now returns the offset of the present moment from the epoch.
func (r *Recorder) Now() time.Duration { return time.Since(r.epoch) }

// Add records a finished span and returns its ID (IDs start at 1).
func (r *Recorder) Add(name string, parent, request int, start, end time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Request: request, Name: name, Start: start, End: end})
	return id
}

// Reserve allocates a span ID before the span's end is known, so that
// children recorded meanwhile can name it as their parent; Finish
// closes it.
func (r *Recorder) Reserve(name string, parent int, start time.Duration) int {
	return r.Add(name, parent, 0, start, start)
}

// ReserveRequest opens a root span that starts a request of its own:
// its Request is its own ID, which spans caused by it inherit.
func (r *Recorder) ReserveRequest(name string, start time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Request: id, Name: name, Start: start, End: start})
	return id
}

// Finish sets the end of a reserved span.
func (r *Recorder) Finish(id int, end time.Duration) {
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// Time runs fn inside a new span under parent.
func (r *Recorder) Time(name string, parent int, fn func()) time.Duration {
	start := r.Now()
	fn()
	end := r.Now()
	r.Add(name, parent, 0, start, end)
	return end - start
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as JSON lines.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// AdoptByContainment gives every parentless span named one of children
// the smallest span named one of parents whose interval contains it.
// It is how router→node legs are linked: ssdrouter builds fresh
// requests for its legs and forwards no header, so with one request in
// flight at a time containment in time is the only — and an exact —
// link.
func AdoptByContainment(spans []Span, parents, children map[string]bool) {
	var ps []int
	for i := range spans {
		if parents[spans[i].Name] {
			ps = append(ps, i)
		}
	}
	sort.Slice(ps, func(a, b int) bool { return spans[ps[a]].Start < spans[ps[b]].Start })
	for i := range spans {
		c := &spans[i]
		if c.Parent != 0 || !children[c.Name] {
			continue
		}
		best := -1
		for _, pi := range ps {
			p := &spans[pi]
			if p.Start > c.Start {
				break
			}
			if p.End >= c.End && (best < 0 || p.Dur() < spans[best].Dur()) {
				best = pi
			}
		}
		if best >= 0 {
			c.Parent = spans[best].ID
			c.Request = spans[best].Request
		}
	}
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children are
// counted once, and a child is clipped to its parent's interval.
func SelfTimes(spans []Span) map[int]time.Duration {
	kids := make(map[int][]*Span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], &spans[i])
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already accounted for
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.Dur() - covered
	}
	return self
}

// Middleware wraps a handler so that every request it serves is one
// span named prefix + the request's route. A request carrying the
// X-Bench-Span header is linked to that client span exactly.
func Middleware(r *Recorder, prefix string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.Atoi(req.Header.Get(SpanHeader))
		start := r.Now()
		h.ServeHTTP(w, req)
		r.Add(prefix+routeName(req), parent, parent, start, r.Now())
	})
}

// routeName maps a request to the daemon's own handler names.
func routeName(req *http.Request) string {
	switch p := req.URL.Path; {
	case p == "/v1/ingest/bin":
		return "ingest_bin"
	case p == "/v1/ingest/batch":
		return "ingest_batch"
	case p == "/v1/watchlist":
		return "watchlist"
	case strings.HasPrefix(p, "/v1/drive/"):
		return "drive"
	case p == "/v1/wal/stream":
		return "wal_stream"
	case p == "/v1/health":
		return "health"
	default:
		return "other"
	}
}

// discardWriter is an http.ResponseWriter that keeps only the status.
type discardWriter struct {
	h    http.Header
	code int
}

func newDiscardWriter() *discardWriter {
	return &discardWriter{h: make(http.Header), code: http.StatusOK}
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
