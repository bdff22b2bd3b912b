// Agesplit: the paper's §5.3 improvement. Infant failures (age <= 90
// days) have different, stronger symptoms than mature ones, so training
// separate models per age band beats one combined model on young drives.
// This example measures the combined model's AUC on young and old test
// rows, then the AUCs of separately trained age-band models.
//
//	go run ./examples/agesplit
package main

import (
	"fmt"
	"log"

	"ssdfail/internal/experiments"
	"ssdfail/internal/failure"
)

func main() {
	cfg := experiments.DefaultConfig()
	cfg.Seed = 42
	cfg.DrivesPerModel = 300
	cfg.CVFolds = 4
	cfg.ForestTrees = 100
	ctx, err := experiments.NewContext(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d drives, %d failures (%.0f%% infant)\n\n",
		len(ctx.Fleet.Drives), len(ctx.An.Events), 100*infantShare(ctx))

	// Combined model, evaluated separately on young and old rows.
	ps, err := ctx.PooledCV(1)
	if err != nil {
		log.Fatal(err)
	}
	tbl, _, err := experiments.Figure15(ctx, ps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tbl.String())

	// The same split helps error prediction too (paper Table 8).
	fmt.Println("(see Table 8 in cmd/ssdpredict for the per-error-type version)")
}

func infantShare(ctx *experiments.Context) float64 {
	young := 0
	for i := range ctx.An.Events {
		if ctx.An.Events[i].Age >= 0 && ctx.An.Events[i].Age <= failure.YoungAgeDays {
			young++
		}
	}
	if len(ctx.An.Events) == 0 {
		return 0
	}
	return float64(young) / float64(len(ctx.An.Events))
}
