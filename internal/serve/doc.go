// Package serve is the online fleet-scoring subsystem behind cmd/ssdserved:
// a long-running HTTP daemon that turns the paper's offline proactive-
// management study (§5, Figures 14–15) into a service. It continuously
// ingests per-drive daily telemetry into a sharded in-memory state store,
// scores the whole fleet with a worker-pool batch scorer built on
// internal/parallel, serves a ranked watchlist of the most failure-prone
// drives, hot-swaps the underlying predictor atomically without dropping
// in-flight requests, and exposes Prometheus-format metrics — all on the
// Go standard library.
//
// The pieces:
//
//   - Store (store.go): sharded drive-state table with per-shard RW
//     locks. A shard maps drive ID to a slot and keeps slot-indexed
//     columns: each drive's two latest daily reports (the feature
//     pipeline's day and previous-day inputs) with the exact count of
//     reports it has sent, and a dense score column memoising each
//     drive's last score. Journal (durable.go) makes the store survive
//     crashes with a write-ahead log and sectioned snapshots.
//   - Registry (registry.go): holds the current predictor behind an
//     atomic pointer; Load reads and validates a serialized forest from
//     disk and swaps it in while scorers keep using the old one.
//   - Scorer (scorer.go, sweep.go): Sweep is the fleet pass — it answers
//     drives whose score slot is fresh from the column and re-scores the
//     rest in blocks across workers; Score and Rank are the from-scratch
//     pass it is tested against. Each shard also keeps a memo of its last
//     walk that found nothing stale, keyed by the shard's change counter
//     (gen), the model version, since and threshold, and holding at most
//     one Scored per drive: a pass with the same key takes the shard's
//     entries from it without visiting a slot, so a warm pass over an
//     unchanged fleet costs one memo copy per shard. The handlers admit
//     passes through a pacer (pace.go) with a fixed budget of slots swept
//     per second.
//   - Metrics: the registry behind /metrics is internal/metrics, a
//     stdlib-only leaf the router and the retrainer share.
//   - Wire formats: every record's bytes — WAL payloads, snapshot
//     records, SSDB batches, catch-up stream frames — come from
//     internal/trace's one codec, which is why internal/cluster can
//     speak them without importing this package.
//   - Server (handlers.go, bin.go): the HTTP surface wiring the above
//     together. Every ingest wire decodes into the one batch loop.
//
// Endpoints: POST /v1/ingest, POST /v1/ingest/batch, POST /v1/ingest/bin,
// GET /v1/watchlist, GET /v1/drive/{id}, GET /v1/model,
// POST /v1/model/reload, GET /healthz, GET /metrics.
package serve
