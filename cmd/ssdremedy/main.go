// Command ssdremedy drives the remediation control plane from the
// command line, in two modes.
//
// Scenario mode (the default) executes a declarative scenario file —
// fleet definition, policy, timed score/fault/restock events, and
// assertions — through the deterministic policy engine and writes the
// remediation event log. Replaying the same scenario always produces a
// byte-identical log, at any GOMAXPROCS; CI diffs committed scenarios
// against golden logs on every push.
//
//	ssdremedy -scenario scenarios/rate_limit_pressure.json -out events.log
//	ssdremedy -scenario scenarios/pool_exhaustion.json -check
//
// Exit codes: 0 on success, 1 on usage or execution errors, 2 when the
// scenario ran but assertions were violated.
//
// Live mode polls a running ssdserved daemon's watchlist (the full
// scored fleet, threshold=0) on an interval and feeds a local policy
// engine, printing each tick's decisions. The daemon itself stays
// untouched — cordon/drain/swap state lives in this process.
//
//	ssdremedy -live -addr http://127.0.0.1:8377 -interval 10s -ticks 6
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"ssdfail/internal/remedy"
	"ssdfail/internal/sparepool"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		scenarioPath = flag.String("scenario", "", "scenario file to execute")
		outPath      = flag.String("out", "", "write the remediation event log here (default stdout)")
		check        = flag.Bool("check", false, "parse and validate the scenario, run nothing")
		quiet        = flag.Bool("quiet", false, "suppress the closing summary")

		live     = flag.Bool("live", false, "poll a running ssdserved daemon instead of a scenario")
		addr     = flag.String("addr", "http://127.0.0.1:8377", "daemon base URL for -live")
		interval = flag.Duration("interval", 10*time.Second, "evaluation cadence for -live")
		ticks    = flag.Int("ticks", 0, "stop -live after this many evaluations (0 = run until interrupted)")

		threshold = flag.Float64("threshold", 0.9, "live-mode score threshold")
		cordon    = flag.Int("cordon-after", 3, "live-mode consecutive breaches before cordoning")
		uncordon  = flag.Int("uncordon-after", 0, "live-mode consecutive clears before uncordoning (0 = cordon-after)")
		frac      = flag.Float64("max-drain-fraction", 0.1, "live-mode max fraction of one model draining at once")
		drain     = flag.Int("drain-ticks", 2, "live-mode ticks a drain takes")
		swapCost  = flag.Float64("swap-cost", 1, "live-mode accounting cost of a swap")
		lossCost  = flag.Float64("loss-cost", 20, "live-mode accounting cost of an unswapped failure")
		spares    = flag.Int("spares", 10, "live-mode spare pool stock")
	)
	flag.Parse()

	if *live {
		policy := remedy.Policy{
			Threshold:        *threshold,
			CordonAfter:      *cordon,
			UncordonAfter:    *uncordon,
			MaxDrainFraction: *frac,
			DrainTicks:       *drain,
			SwapCost:         *swapCost,
			LossCost:         *lossCost,
		}
		if err := runLive(*addr, policy, *spares, *interval, *ticks); err != nil {
			log.Printf("ssdremedy: %v", err)
			return 1
		}
		return 0
	}

	if *scenarioPath == "" {
		log.Printf("ssdremedy: -scenario is required (or -live)")
		flag.Usage()
		return 1
	}
	sc, err := remedy.LoadScenario(*scenarioPath)
	if err != nil {
		log.Printf("ssdremedy: %v", err)
		return 1
	}
	if *check {
		fmt.Printf("%s: valid (%d fleet groups, %d ticks, %d events, %d assertions)\n",
			*scenarioPath, len(sc.Fleet), sc.Ticks, len(sc.Events), len(sc.Assertions))
		return 0
	}
	res, err := remedy.Run(sc)
	if err != nil {
		log.Printf("ssdremedy: %v", err)
		return 1
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, res.EventLog, 0o644); err != nil {
			log.Printf("ssdremedy: %v", err)
			return 1
		}
	} else {
		os.Stdout.Write(res.EventLog)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "scenario %s: %d events\n%s",
			sc.Name, res.Summary.Stats.Swaps+res.Summary.Stats.Cordons+
				res.Summary.Stats.Uncordons+res.Summary.Stats.DrainStarts+
				res.Summary.Stats.Failures,
			remedy.FormatSummary(res.Summary, res.Pool))
	}
	if len(res.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "scenario %s: %d assertion violations:\n", sc.Name, len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		return 2
	}
	return 0
}

// runLive polls the daemon's full scored fleet and feeds a local
// engine, printing each tick's decisions as they happen.
func runLive(addr string, policy remedy.Policy, spares int, interval time.Duration, maxTicks int) error {
	pool, err := sparepool.NewPool(spares)
	if err != nil {
		return err
	}
	engine, err := remedy.NewEngine(policy, pool, remedy.NewEventLog(os.Stdout))
	if err != nil {
		return err
	}
	src := &remedy.HTTPSource{BaseURL: addr}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for tick := 1; ; tick++ {
		ctx, cancel := context.WithTimeout(context.Background(), interval)
		scores, err := src.Fetch(ctx)
		cancel()
		if err != nil {
			// A daemon mid-restart is not fatal; skip the tick.
			log.Printf("ssdremedy: tick %d: %v", tick, err)
		} else if _, err := engine.Evaluate(scores, nil); err != nil {
			return err
		}
		if maxTicks > 0 && tick >= maxTicks {
			break
		}
		<-ticker.C
	}
	fmt.Fprint(os.Stderr, remedy.FormatSummary(engine.Summary(), pool.Stats()))
	return nil
}
