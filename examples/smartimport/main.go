// Smartimport: run the pipeline on real-world-format telemetry. This
// example writes a small Backblaze-style SMART daily-snapshot CSV,
// imports it with the smartio adapter, reconstructs the failure
// timeline, and scores the surviving drives with a predictor trained on
// a simulated fleet — demonstrating transfer from the synthetic
// calibration to external data.
//
//	go run ./examples/smartimport [file.csv]
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"ssdfail/internal/core"
	"ssdfail/internal/failure"
	"ssdfail/internal/smartio"
)

// demoCSV is a miniature SMART snapshot: three drives over five days,
// one of which fails on day four.
const demoCSV = `date,serial_number,model,capacity_bytes,failure,smart_5_raw,smart_9_raw,smart_187_raw,smart_241_raw,smart_242_raw
2024-03-01,Z1,ACME-SSD-480,480000000000,0,0,7200,0,800000000,1600000000
2024-03-02,Z1,ACME-SSD-480,480000000000,0,0,7224,0,808000000,1616000000
2024-03-03,Z1,ACME-SSD-480,480000000000,0,2,7248,14,816000000,1632000000
2024-03-04,Z1,ACME-SSD-480,480000000000,1,9,7272,120,818000000,1636000000
2024-03-01,Z2,ACME-SSD-480,480000000000,0,0,1200,0,300000000,500000000
2024-03-02,Z2,ACME-SSD-480,480000000000,0,0,1224,0,310000000,520000000
2024-03-03,Z2,ACME-SSD-480,480000000000,0,0,1248,0,320000000,540000000
2024-03-04,Z2,ACME-SSD-480,480000000000,0,0,1272,0,330000000,560000000
2024-03-05,Z2,ACME-SSD-480,480000000000,0,0,1296,0,340000000,580000000
2024-03-01,Z3,OTHER-SSD-960,960000000000,0,1,26000,2,2400000000,4100000000
2024-03-02,Z3,OTHER-SSD-960,960000000000,0,1,26024,2,2410000000,4120000000
2024-03-03,Z3,OTHER-SSD-960,960000000000,0,1,26048,3,2420000000,4140000000
2024-03-04,Z3,OTHER-SSD-960,960000000000,0,1,26072,3,2430000000,4160000000
2024-03-05,Z3,OTHER-SSD-960,960000000000,0,1,26096,3,2440000000,4180000000
`

func main() {
	path := ""
	if len(os.Args) > 1 {
		path = os.Args[1]
	} else {
		path = filepath.Join(os.TempDir(), "ssdfail-smart-demo.csv")
		if err := os.WriteFile(path, []byte(demoCSV), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("no CSV given; wrote demo snapshot to %s\n\n", path)
	}

	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	// SkipBadRows tolerates the mangled lines real exports contain; the
	// summary reports what was dropped so silent corruption can't hide.
	fleet, sum, err := smartio.ReadCSVSummary(f, smartio.Options{SkipBadRows: true})
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported %d drives, %d drive-days (%d rows", len(fleet.Drives), fleet.DriveDays(), sum.Rows)
	if sum.Skipped > 0 {
		fmt.Printf(", %d bad rows skipped — first: %v", sum.Skipped, sum.First[0])
	}
	fmt.Println(")")

	an := failure.Analyze(fleet)
	for i := range an.Events {
		e := &an.Events[i]
		d := &fleet.Drives[e.DriveIdx]
		fmt.Printf("failure: drive %d (%s) failed on day %d at age %d days\n",
			d.ID, d.Model, e.FailDay, e.Age)
	}

	// Train on simulated data, score the imported survivors. In
	// production you would train on your own historical SMART data via
	// the same adapter.
	study, err := core.GenerateStudy(42, 150)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := study.TrainPredictor(core.PredictorOptions{Lookahead: 3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	imported := core.NewStudy(fleet)
	fmt.Println("\nrisk scores for imported drives (latest report):")
	for _, w := range imported.Watchlist(pred, 0, 0) {
		status := "healthy"
		if imported.Fleet.Drives[w.DriveIdx].Failed() {
			status = "FAILED in data"
		}
		fmt.Printf("  drive %-12d age %5dd  score %.3f  (%s)\n", w.DriveID, w.Age, w.Score, status)
	}
	fmt.Println(strings.Repeat("-", 50))
	fmt.Println("note: absolute scores from a simulator-trained model are only a demo;")
	fmt.Println("train on your own labeled history for production use.")
}
