package experiments

import (
	"fmt"
	"strings"

	"ssdfail/internal/report"
)

// Figure2 reproduces the paper's failure-timeline diagram as a concrete
// ASCII rendering of an actual drive from the trace: operational period,
// failure, soft-removal inactivity, non-reporting gap, swap, repair, and
// (when observed) re-entry. The paper's Figure 2 is schematic; grounding
// it in a real reconstructed drive doubles as a worked example of the
// Section 3 definitions.
func Figure2(ctx *Context) *report.Table {
	tbl := &report.Table{
		Title:   "Figure 2: failure timeline, rendered from a reconstructed drive",
		Columns: []string{"event", "fleet day", "detail"},
	}
	// Pick the first failure that was repaired and re-entered, falling
	// back to any failure.
	best := -1
	for i := range ctx.An.Events {
		if ctx.An.Events[i].ReturnDay >= 0 {
			best = i
			break
		}
		if best < 0 {
			best = i
		}
	}
	if best < 0 {
		tbl.AddRow("(no failures in trace)", "-", "-")
		return tbl
	}
	e := &ctx.An.Events[best]
	d := &ctx.Fleet.Drives[e.DriveIdx]

	var periodStart int32 = -1
	for j := range d.Days {
		if d.Days[j].Day <= e.FailDay {
			if periodStart < 0 {
				periodStart = d.Days[j].Day
			}
		}
	}
	lastReport := int32(-1)
	for j := range d.Days {
		if d.Days[j].Day < e.SwapDay && d.Days[j].Day > e.FailDay {
			lastReport = d.Days[j].Day
		}
	}

	tbl.AddRow("enters production", fmt.Sprintf("%d", periodStart),
		fmt.Sprintf("drive %d (%s)", d.ID, d.Model))
	tbl.AddRow("failure (last operational day)", fmt.Sprintf("%d", e.FailDay),
		fmt.Sprintf("age %d days", e.Age))
	if lastReport >= 0 {
		tbl.AddRow("inactive reports end", fmt.Sprintf("%d", lastReport),
			"zero read/write activity ('soft' removal)")
	} else {
		tbl.AddRow("reporting stops", fmt.Sprintf("%d", e.FailDay),
			"no performance summaries before the swap")
	}
	tbl.AddRow("swap (sent to repairs)", fmt.Sprintf("%d", e.SwapDay),
		fmt.Sprintf("non-operational period: %d days", e.NonOpDays))
	if e.ReturnDay >= 0 {
		tbl.AddRow("re-enters the field", fmt.Sprintf("%d", e.ReturnDay),
			fmt.Sprintf("time to repair: %d days", e.RepairDays))
	} else {
		tbl.AddRow("never returns", "∞", "repair not observed to complete")
	}

	// A compact one-line visual of the same timeline.
	span := e.SwapDay - periodStart
	if e.ReturnDay >= 0 {
		span = e.ReturnDay - periodStart
	}
	if span > 0 {
		const width = 60
		line := []byte(strings.Repeat("-", width+1))
		mark := func(day int32, c byte) {
			pos := int(int64(day-periodStart) * int64(width) / int64(span))
			if pos >= 0 && pos < len(line) {
				line[pos] = c
			}
		}
		mark(periodStart, '|')
		mark(e.FailDay, 'F')
		mark(e.SwapDay, 'S')
		if e.ReturnDay >= 0 {
			mark(e.ReturnDay, 'R')
		}
		tbl.Notes = append(tbl.Notes, string(line),
			"| production start   F failure   S swap   R repair re-entry")
	}
	return tbl
}
