// Quickstart: generate a small fleet, look at its failure statistics,
// train a failure predictor, and print the drives most at risk — the
// core library workflow in ~40 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ssdfail/internal/core"
)

func main() {
	// 1. Acquire a fleet. GenerateStudy simulates three drive models
	// over six years with statistics calibrated to the SC '19 study;
	// core.NewStudy wraps a fleet trace.ReadBinary read from a cmd/ssdgen
	// file instead.
	study, err := core.GenerateStudy(42, 150)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Inspect the reconstructed failure timeline.
	sum := study.Summarize()
	fmt.Printf("fleet:     %d drives, %d drive-days\n", sum.Drives, sum.DriveDays)
	fmt.Printf("failures:  %d swap events on %d drives (%.1f%%)\n",
		sum.Failures, sum.FailedDrives, sum.FailedPct)
	fmt.Printf("infant:    %.1f%% of failures within 90 days of age\n", sum.InfantPct)
	fmt.Printf("repaired:  %d drives returned from the repair process\n\n", sum.Repaired)

	// 3. Train a failure predictor (random forest, 1-day lookahead),
	// holding out 25% of drives to report an honest validation AUC.
	pred, err := study.TrainPredictor(core.PredictorOptions{
		Lookahead:       1,
		Seed:            7,
		HoldoutFraction: 0.25,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predictor: random forest, N=%d, holdout AUC %.3f\n\n",
		pred.Lookahead, pred.ValidationAUC)

	// 4. Rank the live fleet by failure risk.
	fmt.Println("highest-risk drives (latest report):")
	fmt.Println("  drive     model   age(d)  score")
	for _, w := range study.Watchlist(pred, 0, 10) {
		fmt.Printf("  %-8d  %-6s  %-6d  %.3f\n", w.DriveID, w.Model, w.Age, w.Score)
	}
}
