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
//     columns: a bounded window of each drive's most recent daily reports
//     (enough for the feature pipeline's day+previous-day inputs) and a
//     dense score column memoising each drive's last score.
//   - Registry (registry.go): holds the current predictor behind an
//     atomic pointer; Load reads and validates a serialized forest from
//     disk and swaps it in while scorers keep using the old one.
//   - Scorer (scorer.go, sweep.go): Sweep is the fleet pass — it answers
//     drives whose score slot is fresh from the column and re-scores the
//     rest in blocks across workers; Score and Rank are the from-scratch
//     pass it is tested against. The handlers admit passes through a
//     pacer (pace.go) with a fixed budget of slots swept per second.
//   - Metrics (metrics.go): a minimal Prometheus text-format registry
//     (counters, gauges, histograms) with no dependencies.
//   - Server (handlers.go, bin.go): the HTTP surface wiring the above
//     together. Every ingest wire decodes into the one batch loop.
//
// Endpoints: POST /v1/ingest, POST /v1/ingest/batch, POST /v1/ingest/bin,
// GET /v1/watchlist, GET /v1/drive/{id}, GET /v1/model,
// POST /v1/model/reload, GET /healthz, GET /metrics.
package serve
