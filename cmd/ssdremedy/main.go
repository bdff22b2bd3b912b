// Command ssdremedy executes a declarative remediation scenario file —
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
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ssdfail/internal/remedy"
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
	)
	flag.Parse()

	if *scenarioPath == "" {
		log.Printf("ssdremedy: -scenario is required")
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
