// Command ssdserved is the online fleet-scoring daemon: it ingests
// per-drive daily telemetry over HTTP, maintains a sharded in-memory
// fleet state, scores drives with a serialized random-forest predictor
// (hot-swappable at runtime), and serves the ranked watchlist the paper
// proposes for proactive fleet management (§5, Figures 14–15).
//
// Usage:
//
//	ssdserved -model pred.bin [-addr :8377] [-wal-dir DIR]
//
// The daemon only scores: models are trained offline, by ssdpredict
// -save or ssdtrain. To try it end to end without prior artifacts:
//
//	ssdpredict -drives 40 -trees 10 -save /tmp/pred.bin
//	ssdserved -model /tmp/pred.bin -wal-dir /tmp/ssdserved-wal
//	curl -s localhost:8377/healthz
//	curl -s -X POST localhost:8377/v1/ingest/batch -d @day.json
//	curl -s 'localhost:8377/v1/watchlist?k=10&threshold=0.5'
//	curl -s -X POST localhost:8377/v1/model/reload
//	curl -s -X POST localhost:8377/v1/snapshot
//	curl -s localhost:8377/metrics
//
// With -wal-dir set, accepted records are written to a write-ahead log
// and periodic snapshots; on restart the daemon replays them, so fleet
// state survives crashes. The daemon shuts down gracefully on
// SIGINT/SIGTERM, draining in-flight requests and flushing the WAL
// before exiting.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ssdfail/internal/cluster"
	"ssdfail/internal/remedy"
	"ssdfail/internal/serve"
)

// main is only an exit-code adapter: all work happens in run, so its
// deferred cleanup (WAL flush, listener close) runs even on failure
// paths — log.Fatalf would skip it.
func main() {
	if err := run(); err != nil {
		log.Printf("ssdserved: %v", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":8377", "listen address")
		modelPath = flag.String("model", "ssdserved-model.bin", "predictor file (model.Predictor.Save format)")
		shards    = flag.Int("shards", serve.DefaultShards, "drive-store shard count")
		workers   = flag.Int("workers", 0, "batch-scoring workers (0 = all CPUs)")
		threshold = flag.Float64("threshold", 0.9, "default watchlist score threshold (paper's low-FPR operating point)")
		k         = flag.Int("k", 50, "default watchlist length")
		maxBody   = flag.Int64("max-body", 8<<20, "maximum ingest request body in bytes")
		drainFor  = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain timeout")

		walDir        = flag.String("wal-dir", "", "write-ahead-log directory; empty disables durability")
		walSegBytes   = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation size (0 = 8 MiB)")
		walSyncEvery  = flag.Int("wal-sync-every", 0, "fsync the WAL every N accepted records (0 = 64, -1 = only on rotation/close)")
		walSyncIntvl  = flag.Duration("wal-sync-interval", 0, "max time an accepted record may sit un-fsynced under group commit (0 = 100ms, negative disables the timer)")
		snapshotEvery = flag.Int("snapshot-every", 0, "snapshot the store once the WAL holds max(N, records retained) records past the last snapshot (0 = 4096, -1 disables)")

		remedyOn       = flag.Bool("remedy", false, "enable the remediation control plane (/v1/remedy/*)")
		remedyThresh   = flag.Float64("remedy-threshold", 0.9, "remediation score threshold")
		remedyCordon   = flag.Int("remedy-cordon-after", 3, "consecutive breaches before cordoning")
		remedyUncordon = flag.Int("remedy-uncordon-after", 0, "consecutive clears before uncordoning (0 = same as cordon-after)")
		remedyFrac     = flag.Float64("remedy-max-drain-fraction", 0.1, "max fraction of one drive model draining at once")
		remedyDrain    = flag.Int("remedy-drain-ticks", 2, "evaluation ticks a drain takes before the swap")
		remedySwapCost = flag.Float64("remedy-swap-cost", 1, "accounting cost of one swap")
		remedyLossCost = flag.Float64("remedy-loss-cost", 20, "accounting cost of one unswapped failure")
		remedySpares   = flag.Int("remedy-spares", 0, "spares stocked in the pool at startup")

		nodeName   = flag.String("node-name", "", "cluster node name reported by /v1/health (empty for standalone)")
		follow     = flag.String("follow", "", "primary base URL to replicate from (makes this node a WAL-streaming follower)")
		followPoll = flag.Duration("follow-poll", 0, "follower retry interval after a failed pull (0 = 50ms); idle pulls park on the primary and need no tuning")

		maxIngest   = flag.Int("max-inflight-ingest", 0, "concurrent ingest requests before shedding with 429 (0 = 256)")
		maxScores   = flag.Int("max-inflight-scores", 0, "concurrent watchlist scoring passes before shedding with 429 (0 = 4)")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request deadline (0 = 30s, negative disables)")
		modelTries  = flag.Int("model-retries", 5, "startup model-load attempts (exponential backoff between them)")
		readTimeout = flag.Duration("read-timeout", 30*time.Second, "HTTP server read timeout (full request)")
		idleTimeout = flag.Duration("idle-timeout", 2*time.Minute, "HTTP server keep-alive idle timeout")
	)
	flag.Parse()

	var remedyPolicy *remedy.Policy
	if *remedyOn {
		remedyPolicy = &remedy.Policy{
			Threshold:        *remedyThresh,
			CordonAfter:      *remedyCordon,
			UncordonAfter:    *remedyUncordon,
			MaxDrainFraction: *remedyFrac,
			DrainTicks:       *remedyDrain,
			SwapCost:         *remedySwapCost,
			LossCost:         *remedyLossCost,
		}
	}

	// Bind and answer immediately: until WAL replay finishes the gate
	// reports "starting" with 503, so cluster probes and load balancers
	// can tell "recovering" from "dead" instead of timing out.
	gate := cluster.NewGate()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           gate,
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: 10 * time.Second,
		// Watchlist responses for large fleets take a while to build;
		// give writes the read budget plus slack.
		WriteTimeout: *readTimeout + 30*time.Second,
		IdleTimeout:  *idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("ssdserved: listening on %s (readiness gate up while state recovers)", ln.Addr())

	srv, err := serve.New(serve.Config{
		ModelPath:          *modelPath,
		Shards:             *shards,
		Workers:            *workers,
		MaxBodyBytes:       *maxBody,
		WatchlistThreshold: *threshold,
		WatchlistK:         *k,
		WALDir:             *walDir,
		WALSegmentBytes:    *walSegBytes,
		WALSyncEvery:       *walSyncEvery,
		WALSyncInterval:    *walSyncIntvl,
		SnapshotEvery:      *snapshotEvery,
		MaxInflightIngest:  *maxIngest,
		MaxInflightScores:  *maxScores,
		RequestTimeout:     *reqTimeout,
		ModelLoadAttempts:  *modelTries,
		RemedyPolicy:       remedyPolicy,
		RemedySpares:       *remedySpares,
		NodeName:           *nodeName,
	})
	if err != nil {
		httpSrv.Close()
		return err
	}
	// Flush and close the WAL on every exit path, after the HTTP server
	// has stopped accepting work.
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			log.Printf("ssdserved: closing durability layer: %v", cerr)
		}
	}()
	if rec, ok := srv.Recovery(); ok {
		log.Printf("ssdserved: recovered durable state from %s: snapshot lsn %d (%d drives), %d WAL records replayed, %d covered, %d duplicates, %d truncations (%d bytes), %d segments dropped",
			*walDir, rec.SnapshotLSN, rec.SnapshotDrives, rec.Replayed,
			rec.SkippedCovered, rec.Duplicates, rec.Truncations,
			rec.TruncatedBytes, rec.SegmentsDropped)
		if rec.SnapshotCorrupt {
			log.Printf("ssdserved: WARNING: snapshot was corrupt; state rebuilt from the WAL alone")
		}
	}

	// Shutdown waits for handlers without cancelling them; a follower's
	// parked catch-up request would otherwise hold the exit for its cap.
	httpSrv.RegisterOnShutdown(srv.Drain)
	gate.Ready(srv.Handler())
	log.Printf("ssdserved: serving on %s (model %s)", ln.Addr(), *modelPath)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *follow != "" {
		fol := &cluster.Follower{
			Upstream:     *follow,
			Apply:        srv.ApplyReplicated,
			PollInterval: *followPoll,
		}
		srv.Metrics().NewGaugeFunc("ssdserved_replica_lag_lsn",
			"Records the primary has logged that this follower has not applied yet "+
				"(the primary's last LSN as of its latest reply, minus the follower's cursor).",
			func() float64 {
				st := fol.Stats()
				return max(0, float64(st.PrimaryLSN)-float64(st.NextLSN-1))
			})
		go func() { _ = fol.Run(ctx) }() // exits only on shutdown; pull errors are retried inside
		log.Printf("ssdserved: following %s (WAL stream replication)", *follow)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("ssdserved: signal received, draining for up to %v", *drainFor)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("ssdserved: forced shutdown: %v", err)
		httpSrv.Close()
	}
	log.Printf("ssdserved: bye")
	return nil
}
