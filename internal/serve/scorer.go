package serve

import (
	"sort"
	"sync"

	"ssdfail/internal/dataset"
	"ssdfail/internal/model"
	"ssdfail/internal/parallel"
	"ssdfail/internal/trace"
)

// Scored is one drive's score from a fleet scoring pass.
type Scored struct {
	ID    uint32      `json:"drive_id"`
	Model trace.Model `json:"-"`
	Score float64     `json:"score"`
	Day   int32       `json:"day"`
	Age   int32       `json:"age"`
}

// Scorer scores fleet snapshots across a fixed number of workers using
// the repo's chunked parallel-for. Units are featurized into pooled
// per-block matrices and scored through the predictor's matrix path
// (flattened forest traversal over feature blocks), so a full-fleet
// pass allocates per block-in-flight, not per drive.
type Scorer struct {
	workers int
	scratch sync.Pool // *scoreScratch
	sweeps  sync.Pool // *sweepBufs

	// observe, when set (tests only, same package), is called for every
	// unit scored with the predictor actually used. The hot-swap
	// concurrency test uses it to prove that no batch ever mixes two
	// models: within one Score call every unit must report the same
	// predictor pointer, no matter how many reloads land mid-batch.
	observe func(p *model.Predictor, unit int)
}

// scoreScratch is the pooled per-block working set: one feature matrix
// holding up to scoreBlockRows rows and the score vector it fills.
type scoreScratch struct {
	m   dataset.Matrix
	out []float64
}

// scoreBlockRows is how many drives one worker featurizes and scores at
// a time. Big enough that the flattened forest amortizes its per-tree
// loop across a cache-resident block, small enough to keep every worker
// busy on mid-sized fleets.
const scoreBlockRows = 256

// NewScorer builds a scorer with the given worker count (<= 0 means all
// CPUs, resolved at score time by internal/parallel).
func NewScorer(workers int) *Scorer {
	return &Scorer{
		workers: workers,
		scratch: sync.Pool{New: func() any { return &scoreScratch{} }},
		sweeps:  sync.Pool{New: func() any { return &sweepBufs{} }},
	}
}

// Score scores every unit with the given predictor. Output slot i
// corresponds to units[i], so results are deterministic at any worker
// count.
func (sc *Scorer) Score(p *model.Predictor, units []ScoreUnit) []Scored {
	out := make([]Scored, len(units))
	blocks := (len(units) + scoreBlockRows - 1) / scoreBlockRows
	parallel.For(sc.workers, blocks, func(bi int) {
		lo := bi * scoreBlockRows
		hi := min(lo+scoreBlockRows, len(units))
		s := sc.scratch.Get().(*scoreScratch)
		s.m.Reset()
		for i := lo; i < hi; i++ {
			u := &units[i]
			var prev *trace.DayRecord
			if u.HasPrev {
				prev = &u.Prev
			}
			s.m.AppendFeatureRow(&u.Last, prev)
		}
		if cap(s.out) < hi-lo {
			s.out = make([]float64, hi-lo)
		}
		s.out = s.out[:hi-lo]
		p.ScoreMatrix(&s.m, s.out)
		for i := lo; i < hi; i++ {
			u := &units[i]
			if sc.observe != nil {
				sc.observe(p, i)
			}
			out[i] = Scored{ID: u.ID, Model: u.Model, Score: s.out[i-lo], Day: u.Last.Day, Age: u.Last.Age}
		}
		sc.scratch.Put(s)
	})
	return out
}

// outranks reports whether a sorts before b on a watchlist: higher
// score first, lower drive ID on ties.
func outranks(a, b *Scored) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

func sortRanked(items []Scored) {
	sort.Slice(items, func(a, b int) bool { return outranks(&items[a], &items[b]) })
}

// siftDown restores the heap property below h[i]. The heap is ordered
// worst-ranked first, so h[0] is the entry a better one displaces.
func siftDown(h []Scored, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && outranks(&h[c], &h[r]) {
			c = r
		}
		if !outranks(&h[i], &h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func heapify(h []Scored) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// topK keeps the k best-ranked of the entries offered to it (k <= 0
// keeps them all), so a fleet pass selects a watchlist in O(n log k)
// without holding the fleet's scores. Once k entries are in, items is a
// worst-first heap and an entry that does not outrank items[0] is
// dropped in one comparison.
type topK struct {
	k     int
	items []Scored
}

func (t *topK) offer(s Scored) {
	switch {
	case t.k <= 0 || len(t.items) < t.k:
		t.items = append(t.items, s)
		if len(t.items) == t.k {
			heapify(t.items)
		}
	case outranks(&s, &t.items[0]):
		t.items[0] = s
		siftDown(t.items, 0)
	}
}

// ranked sorts and returns the kept entries; the topK is spent.
func (t *topK) ranked() []Scored {
	sortRanked(t.items)
	return t.items
}

// Rank sorts scores descending (ties broken by drive ID for stable
// output), drops entries below threshold, and truncates to the top k
// (k <= 0 keeps all). It reorders items in place and returns the
// ranked prefix. With k > 0 only the survivors are sorted: entries at
// or above threshold are moved to the front, the best k of them
// selected with a bounded heap, and the rest of items left in no
// particular order.
func Rank(items []Scored, threshold float64, k int) []Scored {
	if k <= 0 {
		sortRanked(items)
		cut := len(items)
		for cut > 0 && items[cut-1].Score < threshold {
			cut--
		}
		return items[:cut]
	}
	n := 0
	for i := range items {
		if items[i].Score < threshold {
			continue
		}
		items[n], items[i] = items[i], items[n]
		n++
	}
	top := items[:n]
	if n > k {
		top = items[:k]
		heapify(top)
		for i := k; i < n; i++ {
			if outranks(&items[i], &top[0]) {
				top[0], items[i] = items[i], top[0]
				siftDown(top, 0)
			}
		}
	}
	sortRanked(top)
	return top
}
