package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ssdfail/internal/trace"
)

// Follower pulls a primary's WAL over GET /v1/wal/stream and applies
// every frame through the local node's durable path. The wire is the
// WAL's own frame format with explicit LSNs; the follower re-verifies
// each frame's CRC and LSN continuity before applying, so a damaged or
// reordered byte stream stops the cursor rather than corrupting the
// replica. The cursor is in-memory only: after a follower restart it
// re-pulls from zero and the store's duplicate rejection makes the
// overlap benign (counted, not applied twice).
//
// Run does not poll: each pull asks the primary to hold the request
// until it has something past the cursor (wait_ms), so a busy primary
// sees about one pull per ingest request and an idle one about one per
// pullWait.
type Follower struct {
	// Upstream is the primary's base URL.
	Upstream string
	// Apply applies one replicated record; serve.(*Server).ApplyReplicated
	// is the production implementation.
	Apply func(id uint32, model trace.Model, rec trace.DayRecord) (bool, error)
	// Client is the HTTP client (nil = a dedicated client with sane
	// timeouts).
	Client *http.Client
	// PollInterval is how long Run waits before retrying after a failed
	// pull, or after an empty reply from a primary that did not park the
	// request (0 = 50ms). A parked pull is re-issued at once.
	PollInterval time.Duration

	next       atomic.Uint64 // LSN the next pull starts from
	primaryLSN atomic.Uint64 // the primary's last LSN, from its latest reply
	applied    atomic.Uint64
	skipped    atomic.Uint64
	pulls      atomic.Uint64

	mu      sync.Mutex
	lastErr error
}

// FollowerStats snapshots replication progress.
type FollowerStats struct {
	// NextLSN is where the next pull resumes (last applied + 1).
	NextLSN uint64
	// PrimaryLSN is the primary's last LSN as of its latest reply (0
	// before the first); PrimaryLSN - (NextLSN - 1) is the lag in records.
	PrimaryLSN uint64
	// Applied and Skipped count records newly applied vs already
	// present; Pulls counts catch-up requests issued.
	Applied uint64
	Skipped uint64
	Pulls   uint64
	// LastErr is the most recent pull/apply error (nil when healthy).
	LastErr error
}

// Stats returns a consistent-enough snapshot for health reporting.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	err := f.lastErr
	f.mu.Unlock()
	return FollowerStats{
		NextLSN:    f.next.Load() + 1,
		PrimaryLSN: f.primaryLSN.Load(),
		Applied:    f.applied.Load(),
		Skipped:    f.skipped.Load(),
		Pulls:      f.pulls.Load(),
		LastErr:    err,
	}
}

func (f *Follower) setErr(err error) {
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
}

// pullWait is the wait_ms Run sends: as long as a primary will park a
// request, and a tenth of the default client's timeout.
const pullWait = trace.MaxStreamWait

func defaultClient() *http.Client { return &http.Client{Timeout: 10 * time.Second} }

// Run pulls until ctx is canceled. Transient pull failures (primary
// down, partitioned, mid-write torn frames) are retried forever at the
// poll cadence — a follower's job during a primary outage is to keep
// trying so promotion hands it a caught-up store.
func (f *Follower) Run(ctx context.Context) error {
	client := f.Client
	if client == nil {
		client = defaultClient()
	}
	interval := f.PollInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		progressed, parked, err := f.pull(ctx, client, pullWait)
		f.setErr(err)
		if err == nil && (progressed || parked) {
			// More frames may be waiting, or the primary held the request
			// until it had reason to answer: pull again immediately. A
			// primary that ignores wait_ms never says it parked, and is
			// polled at the tick instead of spun on.
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// PullOnce issues a single catch-up pull and applies its frames,
// reporting whether the cursor advanced. It is the step-wise form of
// Run, for callers that interleave tailing with their own work between
// pulls — the continuous-learning trainer pulls a batch, runs drift
// checks over the applied records, and only then pulls again — while
// reusing the same frame verification (CRC via trace.NextStreamFrame, LSN
// continuity) as the run loop. Unlike Run's pulls it never asks the
// primary to wait: an empty reply means the stream is drained as of now,
// which is what a caller looping "until nothing came" relies on. A nil
// Client is populated with the run loop's default on first use; PullOnce
// is not safe to use concurrently with Run.
func (f *Follower) PullOnce(ctx context.Context) (bool, error) {
	if f.Client == nil {
		f.Client = defaultClient()
	}
	progressed, _, err := f.pull(ctx, f.Client, 0)
	f.setErr(err)
	return progressed, err
}

// pull issues one catch-up request, letting the primary park it for up
// to wait, and applies its frames. It reports whether the cursor
// advanced and whether the primary says it parked the request.
func (f *Follower) pull(ctx context.Context, client *http.Client, wait time.Duration) (progressed, parked bool, err error) {
	from := f.next.Load() + 1
	url := fmt.Sprintf("%s/v1/wal/stream?from=%d", f.Upstream, from)
	if wait > 0 {
		url += fmt.Sprintf("&wait_ms=%d", wait.Milliseconds())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, false, err
	}
	f.pulls.Add(1)
	resp, err := client.Do(req)
	if err != nil {
		return false, false, err
	}
	//ssdlint:allow droppederr response body close on a fully-read or abandoned pull; the next poll re-pulls from the cursor
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, false, fmt.Errorf("cluster: pull from %s: status %d: %s", f.Upstream, resp.StatusCode, body)
	}
	parked = resp.Header.Get(trace.HeaderWALParked) != ""
	if lsn, perr := strconv.ParseUint(resp.Header.Get(trace.HeaderWALLastLSN), 10, 64); perr == nil {
		f.primaryLSN.Store(lsn)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, parked, err
	}
	expect := from
	for len(data) > 0 {
		lsn, payload, rest, err := trace.NextStreamFrame(data, len(data))
		if err != nil {
			// Torn or checksum-failed frame: stop here, keep what was
			// applied, re-poll from the cursor.
			return progressed, parked, errors.New("cluster: damaged frame on catch-up wire")
		}
		if lsn != expect {
			return progressed, parked, fmt.Errorf("cluster: catch-up wire skipped from %d to %d", expect, lsn)
		}
		id, model, rec, err := trace.DecodeWALRecord(payload)
		if err != nil {
			// Version skew: the primary logged a record this build cannot
			// decode. Skipping would silently lose it on the replica, so
			// stop the cursor and surface the error instead.
			return progressed, parked, fmt.Errorf("cluster: undecodable replicated record at lsn %d: %w", lsn, err)
		}
		applied, err := f.Apply(id, model, rec)
		if err != nil {
			return progressed, parked, err
		}
		if applied {
			f.applied.Add(1)
		} else {
			f.skipped.Add(1)
		}
		f.next.Store(lsn)
		progressed = true
		expect = lsn + 1
		data = rest
	}
	return progressed, parked, nil
}
