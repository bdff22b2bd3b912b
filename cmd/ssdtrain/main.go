// Command ssdtrain is the continuous-learning trainer: it tails a
// ssdserved daemon's WAL stream, reconstructs the fleet trace,
// watches the ingested feature distribution for drift (two-sample KS),
// retrains the paper's random-forest predictor when a shift is
// detected, and promotes the challenger over the serving champion via
// POST /v1/model/reload only when its AUC on a held-out drive
// partition is non-inferior. Every decision goes to a canonical,
// replayable event log; retrain seeds are derived from the snapshot
// LSN, so a given WAL prefix reproduces a given model byte for byte.
//
// Usage:
//
//	ssdtrain -upstream http://127.0.0.1:8377 -model pred.bin
//
// -model must be the same file the daemon serves from (its -model
// flag): promotions atomically replace it before triggering the
// reload. The trainer pulls the WAL from its beginning — start it
// before the daemon prunes segments (or run the daemon with snapshots
// disabled) so the full record history is available for labeling.
//
// With -donor, a missing model file seeds the champion slot from
// another drive model's predictor (the paper's Table 8 cross-model
// transfer): the donor sets the bar until a locally trained challenger
// beats it on local holdout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ssdfail/internal/learn"
	"ssdfail/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		log.Printf("ssdtrain: %v", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		upstream  = flag.String("upstream", "http://127.0.0.1:8377", "daemon base URL (WAL stream + model reload)")
		modelPath = flag.String("model", "", "model file shared with the daemon; promotions replace it (required)")
		donorPath = flag.String("donor", "", "donor predictor to bootstrap the champion from when -model is missing (Table 8 transfer)")
		scope     = flag.String("scope", "all", "drive model to train on (MLC-A, MLC-B, MLC-D) or all")
		lookahead = flag.Int("lookahead", 7, "prediction lookahead in days")
		seed      = flag.Uint64("seed", 42, "base seed; retrain seeds derive from it and the snapshot LSN")
		workers   = flag.Int("workers", 1, "training workers (results are worker-count independent)")
		trees     = flag.Int("trees", 25, "challenger random-forest size")
		holdout   = flag.Float64("holdout", 0.25, "held-out drive fraction for champion/challenger evaluation")
		margin    = flag.Float64("margin", 0.01, "non-inferiority margin on holdout AUC")
		window    = flag.Int("window", 256, "drift window size in records")
		check     = flag.Int("check-every", 64, "drift check cadence in records")
		alpha     = flag.Float64("alpha", 1e-3, "KS p-value threshold for drift")
		minRows   = flag.Int("min-rows", 256, "minimum labeled training rows before a retrain runs")
		cooldown  = flag.Int("cooldown", 0, "records between retrain attempts (0 = 2*window)")
		quiet     = flag.Int("quiet-days", 14, "days of silence behind the frontier before a drive is deemed failed")
		ratio     = flag.Float64("downsample", 5, "training negatives per positive")
		poll      = flag.Duration("poll", 250*time.Millisecond, "idle stream re-poll cadence")
		logPath   = flag.String("log", "", "append canonical decision-log lines to this file (empty = stdout)")
		scrape    = flag.String("metrics-addr", "", "serve /metrics and /v1/train/log on this address (empty = disabled)")
		once      = flag.Bool("once", false, "catch up on the stream, run one final retrain attempt, and exit")
	)
	flag.Parse()
	if *modelPath == "" {
		return errors.New("-model is required (the daemon's model file)")
	}

	sink := os.Stdout
	if *logPath != "" {
		f, err := os.OpenFile(*logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = f
	}

	tr, err := learn.NewTrainer(learn.TrainerConfig{
		Upstream:     strings.TrimRight(*upstream, "/"),
		ModelPath:    *modelPath,
		DonorPath:    *donorPath,
		PollInterval: *poll,
		Loop: learn.Config{
			Scope:           *scope,
			Lookahead:       *lookahead,
			Seed:            *seed,
			Workers:         *workers,
			Trees:           *trees,
			HoldoutFraction: *holdout,
			Margin:          *margin,
			Window:          *window,
			CheckEvery:      *check,
			Alpha:           *alpha,
			MinTrainRows:    *minRows,
			CooldownRecords: *cooldown,
			QuietDays:       int32(*quiet),
			DownsampleRatio: *ratio,
			Sink:            sink,
		},
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *scrape != "" {
		reg := metrics.NewMetrics()
		tr.RegisterMetrics(reg)
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", metrics.MetricsContentType)
			reg.WriteTo(w) //ssdlint:allow droppederr a failed scrape write only hurts the scraper
		})
		mux.HandleFunc("/v1/train/log", func(w http.ResponseWriter, r *http.Request) {
			// ?n= bounds the count, newest kept (0 or absent = everything
			// retained), matching /v1/remedy/log.
			n := 0
			if q := r.URL.Query().Get("n"); q != "" {
				v, err := strconv.Atoi(q)
				if err != nil || v < 0 {
					http.Error(w, "bad n: must be a non-negative integer", http.StatusBadRequest)
					return
				}
				n = v
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, e := range tr.Loop.Log().Recent(n) {
				fmt.Fprintln(w, e.String())
			}
		})
		ln, err := net.Listen("tcp", *scrape)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln) //ssdlint:allow droppederr server exits with the process; Serve's error is http.ErrServerClosed noise
		defer srv.Close()
		log.Printf("ssdtrain: metrics on http://%s/metrics", ln.Addr())
	}

	log.Printf("ssdtrain: tailing %s, model %s, scope %s", *upstream, *modelPath, *scope)
	if *once {
		if err := tr.CatchUp(ctx); err != nil {
			return fmt.Errorf("catching up: %w", err)
		}
		o := tr.Loop.Retrain()
		log.Printf("ssdtrain: final attempt at lsn %d: promoted=%v champion=%.4f challenger=%.4f reason=%q",
			o.LSN, o.Promoted, o.ChampionAUC, o.ChallengerAUC, o.Reason)
		return nil
	}
	err = tr.Run(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
