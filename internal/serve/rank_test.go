package serve

import (
	"math/rand/v2"
	"sort"
	"testing"
)

// rankByFullSort is Rank as it was before the bounded heap: sort the
// whole slice, trim the sub-threshold tail, truncate to k.
func rankByFullSort(items []Scored, threshold float64, k int) []Scored {
	sort.Slice(items, func(a, b int) bool {
		if items[a].Score != items[b].Score {
			return items[a].Score > items[b].Score
		}
		return items[a].ID < items[b].ID
	})
	cut := len(items)
	for cut > 0 && items[cut-1].Score < threshold {
		cut--
	}
	items = items[:cut]
	if k > 0 && len(items) > k {
		items = items[:k]
	}
	return items
}

// TestRankMatchesFullSort holds the heap-selecting Rank — and the topK
// selector the fleet sweep feeds — against the old full sort on random
// score sets with many duplicate scores, for every combination of
// k ∈ {0, 1, 50, > len} and threshold ∈ {0, median, > max}. It also
// pins the in-place contract: the result is a prefix of the input slice,
// the input stays a permutation of itself, and k <= 0 leaves the whole
// slice sorted.
func TestRankMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 34))
	for round := 0; round < 200; round++ {
		n := rng.IntN(400)
		if round < 3 {
			n = round // empty, one, two
		}
		items := make([]Scored, n)
		for i, id := range rng.Perm(n) {
			// Unique IDs in random order, scores on a coarse grid: ties
			// (broken by ID) are the common case.
			items[i] = Scored{ID: uint32(id), Score: float64(rng.IntN(12)) / 10, Day: int32(i)}
		}
		sorted := rankByFullSort(append([]Scored(nil), items...), -1, 0)
		median, above := 0.0, 2.0
		if n > 0 {
			median = sorted[n/2].Score
		}
		for _, k := range []int{0, 1, 50, n + 7} {
			for _, threshold := range []float64{0, median, above} {
				want := rankByFullSort(append([]Scored(nil), items...), threshold, k)

				in := append([]Scored(nil), items...)
				got := Rank(in, threshold, k)
				if !equalScored(got, want) {
					t.Fatalf("round %d n=%d k=%d threshold=%v: Rank diverges from the full sort: got %d entries, want %d",
						round, n, k, threshold, len(got), len(want))
				}
				if len(got) > 0 && &got[0] != &in[0] {
					t.Fatalf("round %d k=%d: Rank did not return a prefix of its input", round, k)
				}
				if !equalScored(rankByFullSort(append([]Scored(nil), in...), -1, 0), sorted) {
					t.Fatalf("round %d k=%d threshold=%v: Rank lost or duplicated entries of its input", round, k, threshold)
				}
				if k <= 0 && !equalScored(in, sorted) {
					t.Fatalf("round %d threshold=%v: k <= 0 did not fully sort in place", round, threshold)
				}

				top := topK{k: k}
				for _, s := range items {
					if s.Score < threshold {
						continue
					}
					top.offer(s)
				}
				if got := top.ranked(); !equalScored(got, want) {
					t.Fatalf("round %d n=%d k=%d threshold=%v: topK diverges from the full sort: got %d entries, want %d",
						round, n, k, threshold, len(got), len(want))
				}
			}
		}
	}
}

func equalScored(a, b []Scored) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
