package bench

// PerLayer lists every per-layer metric, the prefix naming the package
// (or "e2e" for a secondary operation of the end-to-end pass, "bench"
// for the benchmark's own validity numbers). BENCHMARK.json's contract
// has every workload report every one of them in its traced pass; a
// workload whose path does not cross a layer reports 0 for it — the
// layer did no work there. README.md has, per metric, how it is timed
// from outside and which end-to-end metric on which workload it should
// move.
var PerLayer = []MetricDef{
	// Ingest path (ingest_direct, cluster_mixed; fleet_scan for the
	// rows that do not depend on the wire).
	{"trace.frame_decode_ns_per_rec", "ns"},
	{"serve.json_decode_ns_per_rec", "ns"},
	{"serve.store_upsert_ns_per_rec", "ns"},
	{"wal.append_ns_per_rec", "ns"},
	{"wal.fsyncs_per_krec", "count"},
	{"wal.bytes_per_rec", "B"},
	{"wal.rotations", "count"},
	{"serve.journal_upsert_ns_per_rec", "ns"},
	{"serve.snapshots_per_mrec", "count"},
	{"serve.snapshot_ms", "ms"},
	{"serve.snapshot_bytes", "B"},
	{"serve.pruned_segments", "count"},
	{"serve.ingest_handler_ns_per_rec", "ns"},
	{"serve.ingest_handler_self_ns_per_rec", "ns"},
	{"serve.http_overhead_us_per_req", "us"},
	{"serve.wal_fsyncs", "count"},
	{"serve.snapshots", "count"},
	{"serve.sheds", "count"},
	{"serve.recover_snapshot_load_ms", "ms"},
	{"serve.recover_replay_ns_per_rec", "ns"},
	{"serve.recover_replayed", "count"},
	// Scoring path (fleet_scan, cluster_mixed).
	{"serve.score_units_ms", "ms"},
	{"dataset.feature_row_ns", "ns"},
	{"forest.score_rows_ns_per_row", "ns"},
	{"forest.nodes", "count"},
	{"serve.scorer_score_ms", "ms"},
	{"serve.scorer_speedup", "ratio"},
	{"serve.rank_ms", "ms"},
	{"serve.watchlist_handler_ms", "ms"},
	{"serve.watchlist_render_ms", "ms"},
	{"serve.watchlist_stage_coverage", "ratio"},
	{"serve.store_heap_bytes_per_drive", "B"},
	// Cluster path (cluster_mixed).
	{"cluster.ring_owner_ns", "ns"},
	{"cluster.router_ingest_self_ms_p50", "ms"},
	{"cluster.router_read_self_ms_p50", "ms"},
	{"cluster.router_watchlist_self_ms_p50", "ms"},
	{"cluster.legs_per_batch", "count"},
	{"cluster.follower_apply_ns_per_rec", "ns"},
	{"cluster.follower_pulls", "count"},
	{"cluster.follower_lag_lsn_max", "count"},
	{"cluster.follower_catchup_ms", "ms"},
	{"cluster.hedges", "count"},
	{"cluster.degraded", "count"},
	{"cluster.wal_stream_pulls_per_s", "1/s"},
	{"cluster.followed_primary_cpu_share", "ratio"},
	// Set-up (every workload).
	{"fleetsim.generate_s", "s"},
	{"failure.analyze_s", "s"},
	// Training path (train_grid).
	{"dataset.extract_s", "s"},
	{"dataset.rows", "count"},
	{"expgrid.cache_hit_rate", "ratio"},
	{"expgrid.cache_misses", "count"},
	{"expgrid.peak_matrix_bytes", "B"},
	{"expgrid.task_s_sum", "s"},
	{"expgrid.parallel_efficiency", "ratio"},
	{"ml.logreg.fit_s", "s"},
	{"ml.logreg.score_s", "s"},
	{"ml.knn.fit_s", "s"},
	{"ml.knn.score_s", "s"},
	{"ml.svm.fit_s", "s"},
	{"ml.svm.score_s", "s"},
	{"ml.neuralnet.fit_s", "s"},
	{"ml.neuralnet.score_s", "s"},
	{"ml.tree.fit_s", "s"},
	{"ml.tree.score_s", "s"},
	{"ml.forest.fit_s", "s"},
	{"ml.forest.score_s", "s"},
	{"eval.auc_s", "s"},
	// Secondary operations of the end-to-end pass: measured on the
	// clock of the real daemons, reported but not gated.
	{"e2e.recover_s", "s"},
	{"e2e.trickle_p50_ms", "ms"},
	{"e2e.trickle_p95_ms", "ms"},
	{"e2e.read_p50_ms", "ms"},
	{"e2e.read_p90_ms", "ms"},
	{"e2e.watchlist_p50_ms", "ms"},
	{"e2e.watchlist_p75_ms", "ms"},
	// Validity of the run, not of the program.
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.client_cpu_share", "ratio"},
	{"bench.trace_overhead_share", "ratio"},
	{"bench.build_s", "s"},
}
