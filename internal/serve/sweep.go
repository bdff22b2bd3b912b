package serve

import (
	"sync"

	"ssdfail/internal/model"
)

// SweepStats reports what one Sweep did.
type SweepStats struct {
	// Hits is the number of drives answered from the score column.
	Hits int
	// Scored is the number of drives whose slot was stale and that were
	// run through the model.
	Scored int
	// ShardsMemo is the number of store shards answered from the memo
	// of their last walk, without visiting a slot. Their drives are in
	// Hits.
	ShardsMemo int
}

// Fleet is the number of drives the pass considered: every drive whose
// latest report is on or after the pass's sinceDay.
func (st SweepStats) Fleet() int { return st.Hits + st.Scored }

// sweepFlushUnits is how many stale drives a sweep gathers before it
// scores them and writes the results back. It bounds the ScoreUnit
// buffer of a cold pass (every slot stale) to a few shards' worth
// instead of the fleet, and is large enough — 16 scorer blocks — to keep
// every worker busy per flush.
const sweepFlushUnits = 16 * scoreBlockRows

// staleRef remembers where a gathered ScoreUnit came from and the
// revision its reports were read at.
type staleRef struct {
	shard, slot int32
	rev         uint32
}

// sweepBufs are a sweep's buffers, pooled by the Scorer so they survive
// from pass to pass. All three are empty between passes.
type sweepBufs struct {
	out   []Scored    // fresh entries of the shard being scanned, emitted after its lock is released
	units []ScoreUnit // stale drives gathered since the last flush
	refs  []staleRef  // refs[i] is where units[i] came from
}

// shardMemo is what a shard's last walk that gathered no stale slot
// emitted, tagged with everything that walk's answer depends on: the
// shard's gen and the pass's version, sinceDay and minScore. A pass with
// the same tag would walk the same slots to the same answer, so it takes
// entries and hits from here instead. entries are copied in and out
// under mu, which sweeps holding the shard's read lock share; they are
// the walk's emitted entries, so a memo holds at most one Scored per
// drive of its shard.
type shardMemo struct {
	mu       sync.Mutex
	gen      uint64
	version  uint32 // 0, the stale stamp, until a walk is remembered
	sinceDay int32
	minScore float64
	hits     int
	entries  []Scored
}

// sweep is the working state of one Sweep.
type sweep struct {
	sc       *Scorer
	store    *Store
	pred     *model.Predictor
	version  uint32
	sinceDay int32
	minScore float64
	emit     func(Scored)
	stats    SweepStats
	*sweepBufs
}

// Sweep is the fleet scoring pass behind the watchlist and the
// remediation tick. It walks every shard's score column and calls emit,
// in no particular order, for each drive whose latest report is on or
// after sinceDay (<= 0 keeps every drive) and whose score is not below
// minScore. A slot stamped with version is answered from the column; any
// other slot — a report arrived since it was scored, it was restored, or
// another model version scored it — is re-scored from its two latest
// reports through Score, so every score is the bits a from-scratch
// ScoreUnits → Score pass would produce. Re-scored slots are stamped
// with version for the next pass, unless a report landed in between.
//
// A shard whose column has not changed since a walk with the same
// version, sinceDay and minScore found no stale slot in it is answered
// from that walk's memo instead of being walked: the same entries, the
// same hits, in the same order. A warm pass over a fleet that has not
// changed therefore costs one memo copy per shard, not one look per
// drive.
//
// version identifies p: the registry's model.Info.Version, never 0. Two
// concurrent sweeps with different models each see the other's stamps as
// foreign and re-score, so a pass never emits another model's score.
// emit runs on the calling goroutine with no lock held.
func (sc *Scorer) Sweep(st *Store, p *model.Predictor, version int, sinceDay int32, minScore float64, emit func(Scored)) SweepStats {
	if version <= 0 {
		panic("serve: Sweep needs the registry version of its predictor (>= 1); 0 is the stale stamp")
	}
	bufs := sc.sweeps.Get().(*sweepBufs)
	sw := sweep{sc: sc, store: st, pred: p, version: uint32(version),
		sinceDay: sinceDay, minScore: minScore, emit: emit, sweepBufs: bufs}
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		if sw.recall(sh) {
			sw.stats.ShardsMemo++
		} else {
			gathered := len(sw.units)
			hits := sw.scanShard(int32(i), sh)
			sw.stats.Hits += hits
			if len(sw.units) == gathered {
				sw.remember(sh, hits)
			}
		}
		sh.mu.RUnlock()
		for j := range sw.out {
			emit(sw.out[j])
		}
		sw.out = sw.out[:0]
		if len(sw.units) >= sweepFlushUnits {
			sw.flush()
		}
	}
	sw.flush()
	// Not deferred: buffers abandoned mid-pass by a panicking emit are
	// not empty and must not reach the next pass.
	sc.sweeps.Put(bufs)
	return sw.stats
}

// recall answers the shard from its memo when the memo's tag is this
// pass's: its entries go to out and its hits to the stats. The caller
// holds sh.mu for reading, so gen cannot move meanwhile. The function is
// in ssdlint's hotalloc scope table: a pass answered from memos
// allocates nothing.
func (sw *sweep) recall(sh *storeShard) bool {
	m := &sh.memo
	m.mu.Lock()
	ok := m.gen == sh.gen && m.version == sw.version && m.sinceDay == sw.sinceDay && m.minScore == sw.minScore
	if ok {
		sw.out = append(sw.out, m.entries...)
		sw.stats.Hits += m.hits
	}
	m.mu.Unlock()
	return ok
}

// remember makes the walk that just filled out, and gathered no stale
// slot, the shard's memo. The entries are copied into the memo's own
// buffer, which grows to exactly what it must hold. The caller holds
// sh.mu for reading.
func (sw *sweep) remember(sh *storeShard, hits int) {
	m := &sh.memo
	m.mu.Lock()
	if cap(m.entries) < len(sw.out) {
		m.entries = make([]Scored, 0, len(sw.out))
	}
	m.entries = append(m.entries[:0], sw.out...)
	m.gen, m.version, m.sinceDay, m.minScore, m.hits = sh.gen, sw.version, sw.sinceDay, sw.minScore, hits
	m.mu.Unlock()
}

// scanShard is the walk: one comparison decides a slot is fresh, two
// more that it is in range and scores high enough to emit. Stale slots
// are copied out for flush. It returns the shard's hits. The caller
// holds sh.mu for reading; the function is in ssdlint's hotalloc scope
// table, so a fresh slot costs no allocation.
func (sw *sweep) scanShard(si int32, sh *storeShard) int {
	version, sinceDay, minScore := sw.version, sw.sinceDay, sw.minScore
	hits := 0
	for i := range sh.slots {
		sl := &sh.slots[i]
		if sl.stamp != version {
			n := len(sw.units)
			sw.units = sh.appendUnit(sw.units, i, sinceDay)
			if len(sw.units) > n {
				sw.refs = append(sw.refs, staleRef{shard: si, slot: int32(i), rev: sl.rev})
			}
			continue
		}
		if sl.day < sinceDay {
			continue
		}
		hits++
		if sl.score < minScore {
			continue
		}
		sw.out = append(sw.out, Scored{ID: sl.id, Model: sl.model, Score: sl.score, Day: sl.day, Age: sl.age})
	}
	return hits
}

// flush scores the gathered stale drives, writes the scores back to
// their slots, and emits them.
func (sw *sweep) flush() {
	if len(sw.units) == 0 {
		return
	}
	scored := sw.sc.Score(sw.pred, sw.units)
	// refs are in shard order, so each shard is locked once.
	for lo := 0; lo < len(sw.refs); {
		si := sw.refs[lo].shard
		sh := &sw.store.shards[si]
		hi := lo
		sh.mu.Lock()
		for ; hi < len(sw.refs) && sw.refs[hi].shard == si; hi++ {
			// A report or restore that landed after the reports were read
			// moved rev: the score is right for this pass's snapshot but
			// not for the slot any more, which stays stale.
			if sl := &sh.slots[sw.refs[hi].slot]; sl.rev == sw.refs[hi].rev {
				s := &scored[hi]
				sl.score, sl.day, sl.age, sl.stamp = s.Score, s.Day, s.Age, sw.version
			}
		}
		// A new stamp changes what a walk finds: another version's memo
		// of this shard would now count as hits what its walk re-scores.
		sh.gen++
		sh.mu.Unlock()
		lo = hi
	}
	for i := range scored {
		if scored[i].Score < sw.minScore {
			continue
		}
		sw.emit(scored[i])
	}
	sw.stats.Scored += len(scored)
	sw.units = sw.units[:0]
	sw.refs = sw.refs[:0]
}
