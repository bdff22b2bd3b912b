package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"

	"ssdfail/internal/core"
	"ssdfail/internal/serve"
)

// Daemon metric series the checks read.
const (
	seriesIngested  = "ssdserved_ingest_records_total"
	seriesDrives    = "ssdserved_fleet_drives"
	seriesRecords   = "ssdserved_fleet_records"
	seriesRejected  = "ssdserved_ingest_rejected_total"
	seriesWALStream = `ssdserved_http_requests_total{handler="wal_stream",code="200"}`
)

// checkIngestCounters holds the daemon's own counters against what the
// benchmark sent: every scheduled record accepted, none rejected, the
// accepted-records counter advanced by exactly that many, and the fleet
// gauge at the expected drive count.
func checkIngestCounters(o *Outcome, who string, before, after map[string]float64, t *Tally, sentRecs, wantDrives int) {
	if t.Accepted != sentRecs {
		o.violate("%s: accepted %d of %d scheduled records", who, t.Accepted, sentRecs)
	}
	if d := after[seriesIngested] - before[seriesIngested]; d != float64(t.Accepted) {
		o.violate("%s: %s advanced by %.0f, clients saw %d accepted", who, seriesIngested, d, t.Accepted)
	}
	if got := after[seriesDrives]; got != float64(wantDrives) {
		o.violate("%s: %s is %.0f, want %d", who, seriesDrives, got, wantDrives)
	}
	for series, v := range after {
		if strings.HasPrefix(series, seriesRejected) && v != before[series] {
			//ssdlint:allow maporder each violation names its series; their order carries no meaning
			o.violate("%s: %s advanced by %.0f", who, series, v-before[series])
		}
	}
}

// driveReply is the part of GET /v1/drive/{id} the checks read.
type driveReply struct {
	DriveID uint32             `json:"drive_id"`
	Model   string             `json:"model"`
	Last    serve.IngestRecord `json:"last"`
}

// checkDriveReads reads each drive back and compares its model and
// last report's day and age with the benchmark's own copy.
func checkDriveReads(ctx context.Context, o *Outcome, who, base string, sent *Sent, ids []uint32) {
	for _, id := range ids {
		o.Attempted++
		code, body, err := httpGet(ctx, fmt.Sprintf("%s/v1/drive/%d", base, id))
		if err != nil || code != http.StatusOK {
			o.fail("%s: reading drive %d: status %d, %v", who, id, code, err)
			continue
		}
		var got driveReply
		if err := json.Unmarshal(body, &got); err != nil {
			o.fail("%s: drive %d reply: %v", who, id, err)
			continue
		}
		want := sent.Last[id][1]
		if got.DriveID != id || got.Model != sent.Model[id].String() ||
			got.Last.Day != want.Day || got.Last.Age != want.Age || got.Last.CumWrites != want.CumWrites {
			o.fail("%s: drive %d reads back day %d age %d, sent day %d age %d",
				who, id, got.Last.Day, got.Last.Age, want.Day, want.Age)
		}
	}
}

// WatchEntry is one line of a watchlist, as far as the reference check
// compares it.
type WatchEntry struct {
	ID    uint32
	Score float64
}

// ReferenceWatchlist scores every drive in sent with the model file's
// predictor, one record at a time through the predictor's own
// single-record path — not the daemon's block scorer — and ranks the
// result the way the endpoint documents: score descending, drive ID
// ascending, entries below threshold dropped, at most k kept (k <= 0
// keeps all).
func ReferenceWatchlist(pred *core.Predictor, sent *Sent, threshold float64, k int) []WatchEntry {
	out := make([]WatchEntry, 0, len(sent.Last))
	for id, pair := range sent.Last {
		//ssdlint:allow maporder the slice is sorted by (score, ID) below before anything reads it
		out = append(out, WatchEntry{ID: id, Score: pred.ScoreRecord(pair[1], pair[0])})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].ID < out[b].ID
	})
	cut := sort.Search(len(out), func(i int) bool { return out[i].Score < threshold })
	out = out[:cut]
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// watchReply is the part of GET /v1/watchlist the checks read.
type watchReply struct {
	FleetSize int      `json:"fleet_size"`
	Degraded  []string `json:"degraded"`
	Items     []struct {
		DriveID uint32  `json:"drive_id"`
		Score   float64 `json:"score"`
		Day     int32   `json:"day"`
	} `json:"items"`
}

// checkWatchlist fetches the watchlist at the given threshold and k and
// compares it with the reference: same drives in the same order, scores
// equal to the bit after the JSON round trip.
func checkWatchlist(ctx context.Context, o *Outcome, who, base string, pred *core.Predictor, sent *Sent, threshold float64, k int) {
	o.Attempted++
	url := fmt.Sprintf("%s/v1/watchlist?threshold=%g&k=%d", base, threshold, k)
	code, body, err := httpGet(ctx, url)
	if err != nil || code != http.StatusOK {
		o.fail("%s: %s: status %d, %v", who, url, code, err)
		return
	}
	var got watchReply
	if err := json.Unmarshal(body, &got); err != nil {
		o.fail("%s: watchlist reply: %v", who, err)
		return
	}
	want := ReferenceWatchlist(pred, sent, threshold, k)
	if msg := diffWatchlist(got, want, sent.Drives()); msg != "" {
		o.fail("%s: watchlist(threshold=%g,k=%d) %s", who, threshold, k, msg)
	}
}

func diffWatchlist(got watchReply, want []WatchEntry, fleet int) string {
	if got.FleetSize != fleet {
		return fmt.Sprintf("scored %d drives, want %d", got.FleetSize, fleet)
	}
	if len(got.Degraded) != 0 {
		return fmt.Sprintf("is degraded: %v", got.Degraded)
	}
	if len(got.Items) != len(want) {
		return fmt.Sprintf("has %d items, reference has %d", len(got.Items), len(want))
	}
	for i, w := range want {
		g := got.Items[i]
		if g.DriveID != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Sprintf("item %d is drive %d score %v, reference drive %d score %v",
				i, g.DriveID, g.Score, w.ID, w.Score)
		}
	}
	return ""
}
