package learn

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ssdfail/internal/cluster"
	"ssdfail/internal/metrics"
	"ssdfail/internal/model"
	"ssdfail/internal/trace"
)

// TrainerConfig wires a Loop to a live daemon.
type TrainerConfig struct {
	// Upstream is the daemon's base URL; its WAL stream is tailed and
	// its /v1/model/reload is the promotion side effect.
	Upstream string
	// ModelPath is the model file shared with the daemon (its -model
	// flag). A promotion atomically replaces it, then triggers the
	// reload. When the file exists it seeds the champion slot.
	ModelPath string
	// DonorPath optionally seeds the champion from another drive
	// model's predictor when ModelPath does not exist yet (the Table 8
	// transfer bootstrap).
	DonorPath string
	// Client is the HTTP client (nil = 10s-timeout default).
	Client *http.Client
	// PollInterval is the idle re-poll cadence (0 = 250ms).
	PollInterval time.Duration
	// Loop is the engine configuration. Champion, Donor, and Promote
	// are populated by NewTrainer.
	Loop Config
}

// Trainer tails the daemon's WAL through the cluster Follower's frame
// reader and feeds every record to the learning loop. The loop decides;
// the trainer performs the promotion side effect (publish bytes, POST
// /v1/model/reload, verify the daemon loaded exactly those bytes).
type Trainer struct {
	Loop     *Loop
	Follower *cluster.Follower

	cfg    TrainerConfig
	client *http.Client
}

// NewTrainer builds the trainer and its loop. The champion is loaded
// from ModelPath when present, else from DonorPath (emitting the
// bootstrap event), else the slot starts empty and the first viable
// challenger wins it.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) {
	if cfg.Upstream == "" {
		return nil, fmt.Errorf("learn: upstream URL required")
	}
	if cfg.ModelPath == "" {
		return nil, fmt.Errorf("learn: model path required")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	lc := cfg.Loop
	if p, err := model.LoadPredictor(cfg.ModelPath); err == nil {
		lc.Champion = p
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("learn: loading champion %s: %w", cfg.ModelPath, err)
	} else if cfg.DonorPath != "" {
		donor, err := model.LoadPredictor(cfg.DonorPath)
		if err != nil {
			return nil, fmt.Errorf("learn: loading donor %s: %w", cfg.DonorPath, err)
		}
		lc.Donor = donor
	}
	tr := &Trainer{cfg: cfg, client: cfg.Client}
	lc.Promote = tr.promote
	loop, err := NewLoop(lc)
	if err != nil {
		return nil, err
	}
	tr.Loop = loop
	tr.Follower = &cluster.Follower{
		Upstream: cfg.Upstream,
		Client:   cfg.Client,
		Apply: func(id uint32, model trace.Model, rec trace.DayRecord) (bool, error) {
			loop.Observe(id, model, rec)
			return true, nil
		},
	}
	return tr, nil
}

// promote publishes the challenger: atomically replace the shared model
// file, trigger the daemon's reload, and require the daemon to confirm
// it loaded exactly these bytes (the returned ModelInfo's SHA-256 must
// match), so a racing writer cannot be mistaken for a successful
// promotion.
func (tr *Trainer) promote(encoded []byte, o Outcome) error {
	dir := filepath.Dir(tr.cfg.ModelPath)
	tmp, err := os.CreateTemp(dir, ".challenger-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) //ssdlint:allow droppederr best-effort cleanup of an already-renamed or failed temp file
	if _, err := tmp.Write(encoded); err != nil {
		tmp.Close() //ssdlint:allow droppederr the write error already aborts the promotion
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close() //ssdlint:allow droppederr the sync error already aborts the promotion
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), tr.cfg.ModelPath); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, tr.cfg.Upstream+"/v1/model/reload", nil)
	if err != nil {
		return err
	}
	resp, err := tr.client.Do(req)
	if err != nil {
		return err
	}
	//ssdlint:allow droppederr response body close on a fully-read reload response
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("learn: reload: status %d: %s", resp.StatusCode, body)
	}
	var info model.Info
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("learn: reload: parsing response: %w", err)
	}
	if info.SHA256 != o.ModelSHA {
		return fmt.Errorf("learn: reload raced: daemon loaded sha %.12s, published %.12s",
			info.SHA256, o.ModelSHA)
	}
	return nil
}

// CatchUp pulls until the stream is drained (an empty 200) or ctx ends.
// Because the loop runs synchronously inside each pull, a CatchUp over
// a quiesced daemon leaves the trainer in the exact state the WAL
// prefix dictates.
func (tr *Trainer) CatchUp(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		progressed, err := tr.Follower.PullOnce(ctx)
		if err != nil {
			return err
		}
		if !progressed {
			return nil
		}
	}
}

// Run tails until ctx is canceled, retrying transient pull errors at
// the poll cadence like the cluster follower does.
func (tr *Trainer) Run(ctx context.Context) error {
	ticker := time.NewTicker(tr.cfg.PollInterval)
	defer ticker.Stop()
	for {
		progressed, err := tr.Follower.PullOnce(ctx)
		if err == nil && progressed {
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// RegisterMetrics exposes the loop's state as ssdtrain_* families on a
// serve metrics registry. Values are read at scrape time.
func (tr *Trainer) RegisterMetrics(m *metrics.Metrics) {
	stat := tr.Loop.Stats
	m.NewCounterFunc("ssdtrain_records_applied_total",
		"Stream records fed to the learning loop.",
		func() uint64 { return stat().Records })
	m.NewGaugeFunc("ssdtrain_stream_lsn",
		"LSN of the last applied WAL record.",
		func() float64 { return float64(stat().LSN) })
	m.NewGaugeFunc("ssdtrain_fleet_drives",
		"Drives reconstructed from the stream (in scope).",
		func() float64 { return float64(stat().Drives) })
	m.NewGaugeFunc("ssdtrain_frontier_day",
		"Maximum fleet day observed on the stream.",
		func() float64 { return float64(stat().Frontier) })
	m.NewCounterFunc("ssdtrain_drift_events_total",
		"KS drift rejections (one per triggering channel).",
		func() uint64 { return stat().DriftEvents })
	m.NewCounterFunc("ssdtrain_retrains_total",
		"Challengers trained.",
		func() uint64 { return stat().Retrains })
	m.NewCounterFunc("ssdtrain_promotions_total",
		"Challengers promoted through /v1/model/reload.",
		func() uint64 { return stat().Promotions })
	m.NewCounterFunc("ssdtrain_rejections_total",
		"Challengers rejected by the non-inferiority gate (or a failed promotion).",
		func() uint64 { return stat().Rejections })
	m.NewCounterFunc("ssdtrain_retrain_skips_total",
		"Retrain attempts skipped for lack of labeled data.",
		func() uint64 { return stat().Skips })
	m.NewCounterFunc("ssdtrain_rows_extracted_total",
		"Labeled feature rows assembled across retrains.",
		func() uint64 { return stat().RowsExtracted })
	m.NewGaugeFunc("ssdtrain_champion_auc",
		"Champion AUC on the held-out drive partition at the last evaluation.",
		func() float64 { return stat().ChampionAUC })
	m.NewGaugeFunc("ssdtrain_challenger_auc",
		"Challenger AUC on the held-out drive partition at the last evaluation.",
		func() float64 { return stat().ChallengerAUC })
	for i, ch := range tr.Loop.cfg.Channels {
		i := i
		m.NewGaugeFunc("ssdtrain_drift_p_"+ch.Name,
			"Last KS p-value of the "+ch.Name+" drift channel.",
			func() float64 { return stat().DriftP[i] })
	}
}
