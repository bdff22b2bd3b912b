// Capacityplanning: size a spare-drive pool from the fleet's measured
// failure and repair behaviour. The paper motivates failure prediction
// with exactly this kind of proactive management: swaps need a spare on
// hand, repairs take months (half never return), so the spare pool must
// cover the failure inflow over the procurement lead time plus the
// drives stuck in the repair pipeline.
//
//	go run ./examples/capacityplanning
package main

import (
	"fmt"
	"log"
	"math"

	"ssdfail/internal/core"
	"ssdfail/internal/sparepool"
	"ssdfail/internal/stats"
	"ssdfail/internal/trace"
)

func main() {
	study, err := core.GenerateStudy(23, 250)
	if err != nil {
		log.Fatal(err)
	}
	an := study.Analysis
	horizonYears := float64(study.Fleet.Horizon) / 365

	fmt.Println("spare pool sizing per drive model")
	fmt.Println("=================================")
	for _, m := range trace.Models {
		var swaps int
		var returned int
		var repairDays []float64
		drives := 0
		for di := range study.Fleet.Drives {
			if study.Fleet.Drives[di].Model != m {
				continue
			}
			drives++
			for _, ei := range an.PerDrive[di] {
				e := an.Events[ei]
				swaps++
				if e.RepairDays >= 0 {
					returned++
					repairDays = append(repairDays, float64(e.RepairDays))
				}
			}
		}
		swapsPerWeek := float64(swaps) / (horizonYears * 52)

		// Procurement lead time: assume 4 weeks to receive new stock.
		const leadWeeks = 4.0
		demand := swapsPerWeek * leadWeeks
		// Poisson safety stock at ~99% service level (mean + 2.33*sqrt).
		spares := demand + 2.33*math.Sqrt(demand)

		// Repair pipeline: most swapped drives are out for months or
		// forever, so returns barely offset demand. Count the share of
		// swaps that come back within the lead time.
		backWithinLead := 0.0
		if len(repairDays) > 0 {
			e := stats.NewECDF(repairDays)
			backWithinLead = e.At(leadWeeks*7) * float64(returned) / float64(swaps)
		}

		fmt.Printf("\n%s: %d drives, %d swaps over %.1f years\n", m, drives, swaps, horizonYears)
		fmt.Printf("  swap rate:             %.2f per week\n", swapsPerWeek)
		fmt.Printf("  returned from repair:  %d of %d (%.0f%%)\n",
			returned, swaps, 100*float64(returned)/math.Max(float64(swaps), 1))
		fmt.Printf("  back within lead time: %.1f%% of swaps (repairs are too slow to count on)\n",
			100*backWithinLead)
		fmt.Printf("  spare pool (4-week lead, 99%% service): %d drives\n",
			int(math.Ceil(spares)))
	}

	// Validate the sizing with a discrete-event replay: run the actual
	// reconstructed swap/repair stream against candidate policies.
	fmt.Println("\npolicy validation (discrete-event replay of the whole trace)")
	fmt.Println("============================================================")
	minSpares, res, err := sparepool.MinimalSpares(an, 1.0, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  spares needed for 100%% service (no reordering, reuse repairs): %d\n", minSpares)
	fmt.Printf("  repairs returned to the pool: %d of %d swaps\n", res.RepairsReturned, res.Swaps)
	for _, pol := range []sparepool.Policy{
		{InitialSpares: 4, ReorderPoint: 2, OrderQty: 4, LeadTimeDays: 28, ReuseRepaired: true},
		{InitialSpares: 2, ReorderPoint: 1, OrderQty: 2, LeadTimeDays: 28, ReuseRepaired: true},
	} {
		r, err := sparepool.Simulate(an, pol)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  (s=%d,Q=%d,lead=%dd): service %.1f%%, %d orders, avg on-hand %.1f\n",
			pol.ReorderPoint, pol.OrderQty, pol.LeadTimeDays,
			100*r.ServiceLevel, r.OrdersPlaced, r.AvgOnHand)
	}

	// Prediction shrinks the emergency share: drives flagged N days in
	// advance can be drained and replaced on schedule instead of
	// triggering an urgent swap.
	pred, err := study.TrainPredictor(core.PredictorOptions{
		Lookahead: 3, Seed: 9, HoldoutFraction: 0.25,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith a 3-day-lookahead predictor (holdout AUC %.3f), flagged drives\n", pred.ValidationAUC)
	fmt.Println("can be drained and scheduled, converting emergency swaps into planned ones.")
	fmt.Println("top of today's watchlist:")
	for _, w := range study.Watchlist(pred, study.Fleet.Horizon-30, 5) {
		fmt.Printf("  drive %-6d (%s, age %4dd)  risk %.3f\n", w.DriveID, w.Model, w.Age, w.Score)
	}
}
