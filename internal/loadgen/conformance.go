package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// VerifyOptions tunes the conformance pass.
type VerifyOptions struct {
	// MaxViolations caps the returned list; 0 means 64. The count in
	// the final summary line is always exact.
	MaxViolations int
	// Cluster relaxes the single-daemon exactness checks for runs driven
	// through ssdrouter under chaos: rejections (failover re-sends are
	// rejected benignly by the store's duplicate detection), transport
	// errors (bridged by the client's transient retries), and the exact
	// metrics accounting (the router's rollup is a different contract)
	// stop being violations. What stays exact is the loss oracle: every
	// drive's end state must match the schedule precisely, so any
	// accepted-then-lost record still fails the run.
	Cluster bool
}

// Verify runs the end-to-end conformance pass against the daemon after
// a Run: every replayed drive's end state, exact metrics accounting for
// the driven load, and hot-swap version monotonicity. It returns the
// list of violations (empty means conformant). The harness's own
// verification requests are folded into the result's accounting before
// the metrics checks, so they too must be accounted for by the daemon —
// the final scrape is fetched last and, by the daemon's
// observe-after-serve semantics, does not include itself.
func (r *Runner) Verify(ctx context.Context, res *Result, opts VerifyOptions) ([]string, error) {
	if opts.MaxViolations <= 0 {
		opts.MaxViolations = 64
	}
	var v violations
	v.max = opts.MaxViolations

	// Offered records must be fully explained before per-drive state can
	// be exact: the schedule replays a validated trace, so any rejection
	// or drop is itself a failure of daemon or harness. Under chaos,
	// rejections and transport errors are the expected residue of
	// failover re-sends; drops are still records that never landed.
	if res.RejectedRecords > 0 && !opts.Cluster {
		v.addf("daemon rejected %d records from a pre-validated trace", res.RejectedRecords)
	}
	if res.DroppedRecords > 0 {
		v.addf("%d records dropped (shed beyond the retry budget or aborted)", res.DroppedRecords)
	}
	if n := len(res.TransportErrors); n > 0 && !opts.Cluster {
		v.addf("%d transport errors (first: %s) — exact accounting impossible", n, res.TransportErrors[0])
	}

	harness := newStreamState(r.Seed, ^uint64(0)-1)
	r.verifyDrives(ctx, res, harness, &v)

	finalVersion, err := r.readVersion(ctx, harness)
	if err != nil {
		return nil, fmt.Errorf("loadgen: final model read: %w", err)
	}
	res.FinalVersion = finalVersion
	verifyVersions(res, &v)

	// The final scrape must be the last request of the whole session:
	// everything before it — including this harness state — is then
	// visible in its counters, and only the scrape itself is not.
	finalMetrics, err := r.scrapeMetrics(ctx, harness)
	if err != nil {
		return nil, fmt.Errorf("loadgen: final metrics scrape: %w", err)
	}
	res.FinalMetrics = finalMetrics
	res.merge(harness)
	if !opts.Cluster {
		verifyAccounting(res, &v)
	}

	return v.list, nil
}

// violations accumulates findings with a cap on detail.
type violations struct {
	list  []string
	total int
	max   int
}

func (v *violations) addf(format string, args ...any) {
	v.total++
	if len(v.list) < v.max {
		v.list = append(v.list, fmt.Sprintf(format, args...))
	} else if len(v.list) == v.max {
		v.list = append(v.list, fmt.Sprintf("... and more (%d so far)", v.total))
	} else {
		v.list[v.max] = fmt.Sprintf("... and %d more", v.total-v.max)
	}
}

// driveReply is the slice of GET /v1/drive/{id} the verifier checks.
type driveReply struct {
	Model string `json:"model"`
	Days  int    `json:"days"`
	Last  *struct {
		Day int32 `json:"day"`
		Age int32 `json:"age"`
	} `json:"last"`
	Score *float64 `json:"score"`
}

// verifyDrives checks that every drive the schedule replayed is present,
// carries the expected newest record, counts exactly the reports the
// schedule sent it, and is scoreable by the serving model.
func (r *Runner) verifyDrives(ctx context.Context, res *Result, st *streamState, v *violations) {
	ids := make([]uint32, 0, len(res.Sched.Drives))
	for id := range res.Sched.Drives {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		want := res.Sched.Drives[id]
		op := Op{Kind: OpDrive, Path: "/v1/drive/" + strconv.FormatUint(uint64(id), 10)}
		code, body, dur, _, err := r.do(ctx, &op)
		st.record(OpDrive, code, dur)
		if err != nil {
			st.fail(err)
			v.addf("drive %d: transport error: %v", id, err)
			continue
		}
		if code != http.StatusOK {
			v.addf("drive %d: status %d, want 200", id, code)
			continue
		}
		var rep driveReply
		if err := json.Unmarshal(body, &rep); err != nil {
			v.addf("drive %d: unparseable response: %v", id, err)
			continue
		}
		if rep.Model != want.Model {
			v.addf("drive %d: model %q, want %q", id, rep.Model, want.Model)
		}
		if rep.Last == nil {
			v.addf("drive %d: no last record", id)
		} else if rep.Last.Day != want.LastDay || rep.Last.Age != want.LastAge {
			v.addf("drive %d: last (day %d, age %d), want (day %d, age %d)",
				id, rep.Last.Day, rep.Last.Age, want.LastDay, want.LastAge)
		}
		if rep.Days != want.Records {
			v.addf("drive %d: accepted %d reports, want the %d sent", id, rep.Days, want.Records)
		}
		if rep.Score == nil {
			v.addf("drive %d: not scoreable (no score in response)", id)
		}
	}
}

// verifyVersions checks hot-swap observability: the final version equals
// baseline plus completed reloads, reload versions are strictly
// increasing, and no watchlist response was served by a model older
// than a reload that had already completed when the request began.
func verifyVersions(res *Result, v *violations) {
	v0 := res.BaselineVersion
	if want := v0 + len(res.Reloads); res.FinalVersion != want {
		v.addf("final model version %d, want %d (baseline %d + %d reloads)",
			res.FinalVersion, want, v0, len(res.Reloads))
	}
	prev := v0
	for i, rl := range res.Reloads {
		if rl.Version <= prev {
			v.addf("reload %d: version %d not greater than previous %d", i, rl.Version, prev)
		}
		prev = rl.Version
	}
	for i, w := range res.Watchlists {
		min := v0
		for _, rl := range res.Reloads {
			if rl.Done.Before(w.Start) && rl.Version > min {
				min = rl.Version
			}
		}
		if w.Version < min {
			v.addf("watchlist %d: served by model version %d, but version %d had already completed loading",
				i, w.Version, min)
		}
		if w.Version > res.FinalVersion {
			v.addf("watchlist %d: version %d exceeds final version %d", i, w.Version, res.FinalVersion)
		}
	}
}

// verifyAccounting compares the daemon's counter deltas over the run
// against the client's own books. The driven load must be exactly
// explained: requests by handler and code, accepted records, rejections
// by reason, and sheds by handler.
func verifyAccounting(res *Result, v *violations) {
	base, final := res.BaselineMetrics, res.FinalMetrics

	if d := metricDelta(base, final, "ssdserved_ingest_records_total"); d != float64(res.AcceptedRecords) {
		v.addf("ingest_records_total advanced by %.0f, client saw %d accepted", d, res.AcceptedRecords)
	}

	var rejected float64
	for series := range final {
		if strings.HasPrefix(series, "ssdserved_ingest_rejected_total{") {
			rejected += metricDelta(base, final, series)
		}
	}
	if rejected != float64(res.RejectedRecords) {
		v.addf("ingest_rejected_total advanced by %.0f, client saw %d rejected", rejected, res.RejectedRecords)
	}

	// Requests by handler and code, both directions: every client-side
	// count must match the daemon's delta, and every daemon-side series
	// that moved must be explained by the client. The metrics handler
	// runs one short because the final scrape cannot count itself.
	expected := make(map[string]float64)
	for handler, byCode := range res.Codes {
		for code, n := range byCode {
			if code == 0 {
				continue // transport failure; never reached a handler
			}
			series := fmt.Sprintf(`ssdserved_http_requests_total{handler=%q,code=%q}`,
				handler, strconv.Itoa(code))
			expected[series] += float64(n)
		}
	}
	expected[`ssdserved_http_requests_total{handler="metrics",code="200"}`]--
	for series := range final {
		if strings.HasPrefix(series, "ssdserved_http_requests_total{") {
			if _, ok := expected[series]; !ok {
				expected[series] = 0
			}
		}
	}
	series := make([]string, 0, len(expected))
	for s := range expected {
		series = append(series, s)
	}
	sort.Strings(series)
	for _, s := range series {
		if d := metricDelta(base, final, s); d != expected[s] {
			v.addf("%s advanced by %.0f, client accounts for %.0f", s, d, expected[s])
		}
	}

	// Remediation ticks: the daemon's evaluation counter must advance by
	// exactly the number of ticks the client drove to completion (a 409
	// from a remediation-disabled daemon is not a tick).
	remedyOK := float64(res.Codes["remedy_evaluate"][http.StatusOK])
	if d := metricDelta(base, final, "ssdremedy_evaluations_total"); d != remedyOK {
		v.addf("ssdremedy_evaluations_total advanced by %.0f, client completed %.0f evaluations", d, remedyOK)
	}

	// Sheds: the daemon's 429s by handler are exactly the client's.
	shed := make(map[string]float64)
	for handler, byCode := range res.Codes {
		if n := byCode[http.StatusTooManyRequests]; n > 0 {
			shed[handler] = float64(n)
		}
	}
	shedSeries := make([]string, 0, len(final))
	for s := range final {
		if strings.HasPrefix(s, "ssdserved_load_shed_total{") {
			shedSeries = append(shedSeries, s)
		}
	}
	sort.Strings(shedSeries)
	for _, s := range shedSeries {
		handler := strings.TrimSuffix(strings.TrimPrefix(s, `ssdserved_load_shed_total{handler="`), `"}`)
		if d := metricDelta(base, final, s); d != shed[handler] {
			v.addf("%s advanced by %.0f, client saw %.0f sheds", s, d, shed[handler])
		}
		delete(shed, handler)
	}
	missed := make([]string, 0, len(shed))
	for handler := range shed {
		missed = append(missed, handler)
	}
	sort.Strings(missed)
	for _, handler := range missed {
		v.addf("client saw %.0f sheds for %s but no load_shed series moved", shed[handler], handler)
	}
}
