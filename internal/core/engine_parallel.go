package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/rockclust/rock/internal/linkage"
)

// Parallel batched merge rounds over the arena engine.
//
// The serial engine pops the best pair, merges it, repairs the heap, and
// repeats. This file batches that loop: per round it pops a conflict-free
// prefix of the heap's pop order — pairs whose closed neighborhoods
// (the pair plus every cluster linked to either side) are mutually
// disjoint, detected with per-round stamp arrays — computes every
// batched merge concurrently across workers, commits the disjoint row
// rewrites concurrently, and repairs the affected heap entries once per
// round (pqueue.Lazy.BulkUpdate + Fix, or per-entry sifts when the round
// touched only a few).
//
// Output is byte-identical to the serial engine, and therefore to the
// reference engine. The argument, enforced piecewise by the oracle tests:
//
//   - Selection pops candidates in exactly the heap's (goodness desc,
//     id asc) order, so accepted pairs c1..cm are the serial engine's
//     next pops *provided no merge in the batch disturbs a later
//     candidate*. Disjoint closed neighborhoods guarantee a later
//     candidate's links, sizes, and cached bests are untouched by
//     earlier merges in the batch.
//   - The one remaining hazard is that merge cj's heap repairs can
//     *create* an entry better than candidate ci (i > j) — goodness is
//     not monotone under merging — in which case the serial engine would
//     have popped that new entry first. Each merge's repairs are
//     computed read-only in phase A, and a validation pass truncates the
//     batch at the first candidate beaten by an earlier merge's best
//     repaired entry. Truncated candidates are pushed back verbatim.
//   - Entries popped during selection for the partner v of an accepted
//     pair are exactly the entries the serial merge would invalidate;
//     they are dropped, and restored verbatim if validation truncates
//     their pair.
//
// Every round commits at least one merge (the first candidate is by
// construction the serial engine's next pop), so progress is guaranteed.

// DefaultMergeSerialBelow is the default crossover for the merge phase:
// below this many points the per-round selection, validation, and
// goroutine overheads of the batched engine outweigh its parallelism, so
// agglomeration takes the serial arena path.
const DefaultMergeSerialBelow = 2048

// agglomerateAuto dispatches between the serial arena engine and the
// parallel batched engine: workers (0 = GOMAXPROCS) > 1 and at least
// DefaultMergeSerialBelow points take batched rounds, anything else the
// arena. Both paths produce byte-identical results.
func agglomerateAuto(n int, lt *linkage.Compact, k int, good GoodnessFunc, f float64, weedTrigger, weedMaxSize int, trace bool, workers int) engineResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || n < DefaultMergeSerialBelow {
		return agglomerate(n, lt, k, good, f, weedTrigger, weedMaxSize, trace)
	}
	return agglomerateParallel(n, lt, k, good, f, weedTrigger, weedMaxSize, trace, workers)
}

// bestSet is one pending bestTo/bestG write computed in phase A and
// applied at commit.
type bestSet struct {
	slot int32
	to   int32
	g    float64
}

// heapPub is one pending heap publication for a slot whose cached best
// changed (or, for drop, whose row emptied).
type heapPub struct {
	slot int32
	id   int32
	prio float64
	drop bool // Invalidate instead of Update
}

// mergeCand is one accepted merge of a round: the pair (u, v), the
// logical id w assigned to the product, the popped goodness, and the
// phase-A outputs — the merged row, the deferred bestTo/bestG writes,
// and the heap publications the merge will make.
type mergeCand struct {
	u, v    int32
	w       int32
	g       float64
	merged  []linkEntry
	sets    []bestSet
	pubs    []heapPub
	retired [2][]linkEntry // row buffers freed by the commit
}

// batcher drives batched merge rounds over an arena. The stamp arrays
// implement per-round conflict detection without clearing: a slot is
// marked iff its stamp equals the current epoch.
type batcher struct {
	a       *arena
	workers int

	epoch      int32
	mergeStamp []int32 // slot is u or v of an accepted pair this round
	nbStamp    []int32 // slot is in the closed neighborhood of an accepted pair

	cands   []mergeCand
	dropped []int32 // slots whose heap entries selection dropped as pair partners

	// Persistent helper goroutines: spawned on the first parallel phase,
	// fed one phaseRun per phase, alive until the run ends — rounds are
	// numerous and short, so per-round spawning would dominate.
	phaseCh chan *phaseRun

	stats batchStats
}

// phaseRun is one parallel phase of a round (phase A or commit): a work
// function over candidate indices [0, m), drained cooperatively by the
// coordinator and the helper goroutines via an atomic cursor.
type phaseRun struct {
	fn   func(int)
	m    int32
	next atomic.Int32
	done sync.WaitGroup
}

// drain processes work items until the cursor passes m.
func (p *phaseRun) drain() {
	for {
		i := p.next.Add(1) - 1
		if i >= p.m {
			return
		}
		p.fn(int(i))
	}
}

// batchStats instruments the round structure — exposed to tests (which
// assert that clustered workloads genuinely batch) and cheap enough to
// collect unconditionally.
type batchStats struct {
	rounds    int // merge rounds executed
	maxBatch  int // largest committed batch
	truncated int // candidates pushed back by validation
}

// agglomerateParallel is the batched counterpart of agglomerate: same
// inputs, byte-identical outputs, merges executed in conflict-free
// concurrent rounds across the given number of workers (≥ 2).
func agglomerateParallel(n int, lt *linkage.Compact, k int, good GoodnessFunc, f float64, weedTrigger, weedMaxSize int, trace bool, workers int) engineResult {
	return newBatcher(n, lt, good, f, workers).run(k, weedTrigger, weedMaxSize, trace)
}

// newBatcher seeds an arena and the round state around it.
func newBatcher(n int, lt *linkage.Compact, good GoodnessFunc, f float64, workers int) *batcher {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &batcher{
		a:          newArena(n, lt, good, f),
		workers:    workers,
		mergeStamp: make([]int32, n),
		nbStamp:    make([]int32, n),
	}
}

// run executes batched merge rounds until k clusters remain or the links
// run out, mirroring the serial agglomerate loop round by round.
func (b *batcher) run(k, weedTrigger, weedMaxSize int, trace bool) engineResult {
	a := b.a
	n := len(a.alive)
	defer b.stopWorkers()

	var res engineResult
	nextID := n
	active := n
	weedDone := weedTrigger <= 0

	for active > k {
		// The serial engine checks the weeding trigger after every merge,
		// so a batch must not step past it: cap the round at the merge
		// where active first reaches the trigger (and always at k).
		limit := active - k
		if !weedDone {
			if c := active - weedTrigger; c < limit {
				if c < 1 {
					c = 1
				}
				limit = c
			}
		}

		if b.selectBatch(limit, nextID) {
			res.stoppedEarly = true
			break
		}
		kept := len(b.cands)

		// Record trace steps before the commit mutates ids and sizes;
		// candidate i sees the arena exactly as the serial engine's i-th
		// merge of the round would (disjointness).
		recordTrace := func(kept int) {
			if !trace {
				return
			}
			for i := 0; i < kept; i++ {
				c := &b.cands[i]
				res.trace = append(res.trace, MergeStep{
					A: int(a.id[c.u]), B: int(a.id[c.v]), Into: int(c.w),
					Goodness: c.g, Links: int(a.rowCount(c.u, c.v)),
					SizeA: int(a.size[c.u]), SizeB: int(a.size[c.v]),
					Remaining: active - (i + 1),
				})
			}
		}

		if kept == 1 {
			// A single candidate is trivially a valid serial prefix: skip
			// the simulation and validation machinery and merge in place,
			// exactly like one serial engine step.
			c := &b.cands[0]
			recordTrace(1)
			a.pool = append(a.pool, c.merged[:0])
			c.merged = nil
			a.merge(c.u, c.v, c.w)
		} else {
			b.computeAll()
			kept = b.validate()
			recordTrace(kept)
			b.commitAll(kept)
			b.repairHeap(kept)
		}

		b.stats.rounds++
		if kept > b.stats.maxBatch {
			b.stats.maxBatch = kept
		}

		nextID += kept
		active -= kept
		res.merges += kept

		if !weedDone && active <= weedTrigger {
			weedDone = true
			active -= a.weed(weedMaxSize, &res)
		}
	}

	a.collect(&res)
	return res
}

// selectBatch pops up to limit conflict-free candidates off the heap,
// stamping each accepted pair's closed neighborhood. It returns true when
// the round's first pop ends agglomeration (empty heap or non-positive
// goodness) — the serial engine's stoppedEarly condition, checked at the
// identical point in the pop order.
func (b *batcher) selectBatch(limit, nextID int) (stop bool) {
	a := b.a
	b.epoch++
	e := b.epoch
	b.cands = b.cands[:0]
	b.dropped = b.dropped[:0]

	for len(b.cands) < limit {
		ui, g, ok := a.heap.Pop()
		if !ok {
			return len(b.cands) == 0
		}
		u := int32(ui)
		if g <= 0 {
			if len(b.cands) == 0 {
				return true
			}
			// The serial engine would reach this entry only after the
			// batch's merges and their repairs; hand it back untouched.
			a.publish(u)
			return false
		}
		if b.mergeStamp[u] == e {
			// u is the partner of an accepted pair: the serial merge
			// invalidates this entry before ever popping it. Drop it, and
			// remember the slot in case validation truncates its pair.
			b.dropped = append(b.dropped, u)
			continue
		}
		v := a.bestTo[u]
		if b.conflicts(u, v, e) {
			a.publish(u)
			return false
		}
		b.accept(u, v, int32(nextID+len(b.cands)), g, e)
	}
	return false
}

// conflicts reports whether pair (u, v) touches the closed neighborhood
// of any candidate accepted earlier this round. Two merges with disjoint
// closed neighborhoods read and write disjoint arena state, and neither
// can change the other's goodness or cached bests.
func (b *batcher) conflicts(u, v, e int32) bool {
	if b.nbStamp[u] == e || b.mergeStamp[v] == e || b.nbStamp[v] == e {
		return true
	}
	for _, f := range b.a.rows[u] {
		if b.mergeStamp[f.to] == e || b.nbStamp[f.to] == e {
			return true
		}
	}
	for _, f := range b.a.rows[v] {
		if b.mergeStamp[f.to] == e || b.nbStamp[f.to] == e {
			return true
		}
	}
	return false
}

// accept records (u, v) → w as a candidate and stamps its closed
// neighborhood. The merged-row buffer is drawn from the pool here, in the
// serial selection phase, so phase A never contends for it; candidate
// structs are recycled across rounds so their sets/pubs slices keep their
// capacity.
func (b *batcher) accept(u, v, w int32, g float64, e int32) {
	a := b.a
	b.mergeStamp[u], b.mergeStamp[v] = e, e
	for _, f := range a.rows[u] {
		b.nbStamp[f.to] = e
	}
	for _, f := range a.rows[v] {
		b.nbStamp[f.to] = e
	}
	if len(b.cands) < cap(b.cands) {
		b.cands = b.cands[:len(b.cands)+1]
	} else {
		b.cands = append(b.cands, mergeCand{})
	}
	c := &b.cands[len(b.cands)-1]
	c.u, c.v, c.w, c.g = u, v, w, g
	c.merged = a.takeBuf()
}

// runPhase executes fn(i) for i in [0, m) across the workers. The
// coordinator participates; helpers are spawned once per run and handed
// phases over a channel (a completed phase's WaitGroup orders its writes
// before the coordinator's next serial step). m ≤ 1 runs inline.
func (b *batcher) runPhase(fn func(int), m int) {
	nw := b.workers
	if nw > m {
		nw = m
	}
	if nw <= 1 {
		for i := 0; i < m; i++ {
			fn(i)
		}
		return
	}
	if b.phaseCh == nil {
		ch := make(chan *phaseRun)
		b.phaseCh = ch
		for w := 0; w < b.workers-1; w++ {
			go func() {
				for p := range ch {
					p.drain()
					p.done.Done()
				}
			}()
		}
	}
	p := &phaseRun{fn: fn, m: int32(m)}
	helpers := nw - 1
	p.done.Add(helpers)
	for i := 0; i < helpers; i++ {
		b.phaseCh <- p
	}
	p.drain()
	p.done.Wait()
}

// stopWorkers releases the helper goroutines at the end of a run.
func (b *batcher) stopWorkers() {
	if b.phaseCh != nil {
		close(b.phaseCh)
		b.phaseCh = nil
	}
}

// computeAll runs phase A — the read-only computation of every
// candidate's merged row, deferred best-repairs, and heap publications —
// across the workers. Candidates touch disjoint state, so the only shared
// access is reads of arena arrays no candidate writes this phase.
func (b *batcher) computeAll() {
	b.runPhase(func(i int) { b.compute(&b.cands[i]) }, len(b.cands))
}

// compute fills in one candidate: the two-pointer merged row, then — for
// every neighbor x of the product — exactly the cached-best repair the
// serial patchNeighbor would make, recorded instead of applied. The
// product's own best (the serial rescanBest(u) + publish(u)) comes last.
// All reads are of pre-round state; disjointness makes that identical to
// the state the serial engine's corresponding merge would observe.
func (b *batcher) compute(c *mergeCand) {
	a := b.a
	u, v, w := c.u, c.v, c.w
	sizeW := a.size[u] + a.size[v]
	c.merged = mergeRows(a.rows[u], a.rows[v], u, v, c.merged)
	c.sets, c.pubs = c.sets[:0], c.pubs[:0]

	for _, eM := range c.merged {
		x := eM.to
		// The product carries the youngest id, so pairGoodness(x, w) puts
		// the product's size first for every neighbor.
		gw := a.goodness(eM.cnt, sizeW, a.size[x])
		oldTo, oldG := a.bestTo[x], a.bestG[x]
		if oldTo == u || oldTo == v {
			bt, bg := b.rescanWith(x, u, v, w, gw)
			c.sets = append(c.sets, bestSet{slot: x, to: bt, g: bg})
			if bg != oldG {
				c.pubs = append(c.pubs, heapPub{slot: x, id: a.id[x], prio: bg})
			}
		} else if gw > oldG {
			// Strict >: on a tie the incumbent keeps winning because the
			// product's id is the youngest — mirrors patchNeighbor.
			c.sets = append(c.sets, bestSet{slot: x, to: u, g: gw})
			c.pubs = append(c.pubs, heapPub{slot: x, id: a.id[x], prio: gw})
		}
	}

	// The product's best over its merged row: max goodness, ties toward
	// the smaller logical id — rescanBest on the row the commit installs.
	bt, bg, bid := int32(-1), 0.0, int32(0)
	for _, eM := range c.merged {
		g := a.goodness(eM.cnt, sizeW, a.size[eM.to])
		if bt < 0 || g > bg || (g == bg && a.id[eM.to] < bid) {
			bt, bg, bid = eM.to, g, a.id[eM.to]
		}
	}
	c.sets = append(c.sets, bestSet{slot: u, to: bt, g: bg})
	if bt < 0 {
		c.pubs = append(c.pubs, heapPub{slot: u, drop: true})
	} else {
		c.pubs = append(c.pubs, heapPub{slot: u, id: w, prio: bg})
	}
}

// rescanWith computes what rescanBest(x) returns after u and v merge into
// slot u with logical id w and neighbor goodness gw, without touching x's
// row: iterate the current row, collapsing the u and v entries into one
// logical entry for the product. Order-independent because live logical
// ids are distinct.
func (b *batcher) rescanWith(x, u, v, w int32, gw float64) (int32, float64) {
	a := b.a
	bt, bg, bid := int32(-1), 0.0, int32(0)
	seenW := false
	for _, f := range a.rows[x] {
		var yslot, yid int32
		var g float64
		if f.to == u || f.to == v {
			if seenW {
				continue
			}
			seenW = true
			yslot, yid, g = u, w, gw
		} else {
			yslot, yid, g = f.to, a.id[f.to], a.pairGoodness(x, f.to, f.cnt)
		}
		if bt < 0 || g > bg || (g == bg && yid < bid) {
			bt, bg, bid = yslot, g, yid
		}
	}
	return bt, bg
}

// validate returns the length of the longest batch prefix that matches
// the serial pop order: candidate i survives iff no heap entry published
// by merges 1..i-1 would beat its popped entry (goodness desc, id asc).
// Truncated candidates are pushed back verbatim — including any partner
// entries selection dropped on their behalf — and their buffers recycled.
func (b *batcher) validate() int {
	a := b.a
	m := len(b.cands)
	kept := m
	haveMax := false
	var maxPrio float64
	var maxID int32
	for i := 0; i < m; i++ {
		c := &b.cands[i]
		if i > 0 && haveMax {
			if uid := a.id[c.u]; maxPrio > c.g || (maxPrio == c.g && maxID < uid) {
				kept = i
				break
			}
		}
		for _, p := range c.pubs {
			if p.drop {
				continue
			}
			if !haveMax || p.prio > maxPrio || (p.prio == maxPrio && p.id < maxID) {
				haveMax, maxPrio, maxID = true, p.prio, p.id
			}
		}
	}
	if kept == m {
		return kept
	}
	b.stats.truncated += m - kept
	for i := kept; i < m; i++ {
		c := &b.cands[i]
		a.publish(c.u) // restore the popped entry; nothing was committed
		a.pool = append(a.pool, c.merged[:0])
		c.merged = nil
	}
	// Partner entries dropped during selection belonged to specific
	// pairs; restore the ones whose pair was truncated. A truncated v is
	// never inside a kept candidate's neighborhood (stamps are checked
	// before acceptance), so the restored entry's values are still
	// current.
	for _, z := range b.dropped {
		for i := kept; i < len(b.cands); i++ {
			if b.cands[i].v == z {
				a.publish(z)
				break
			}
		}
	}
	b.cands = b.cands[:kept]
	return kept
}

// commitAll applies the kept candidates' merges to the arena. Each commit
// writes only its own closed neighborhood — rows, member lists, sizes,
// ids, cached bests — so the batch commits concurrently; heap repair is
// deferred to repairHeap.
func (b *batcher) commitAll(kept int) {
	b.runPhase(func(i int) { b.a.commitMerge(&b.cands[i]) }, kept)
}

// commitMerge is merge() with the heap interactions stripped out: install
// the merged row, fold v's member list into u's, rewrite every neighbor's
// row, and apply the deferred bestTo/bestG writes. Freed row buffers are
// parked on the candidate and pooled serially in repairHeap.
func (a *arena) commitMerge(c *mergeCand) {
	u, v := c.u, c.v
	c.retired[0], c.retired[1] = a.rows[u][:0], a.rows[v][:0]
	a.rows[u] = c.merged
	a.rows[v] = nil

	a.alive[v] = false
	a.id[u] = c.w
	a.size[u] += a.size[v]
	a.next[a.tail[u]] = a.head[v]
	a.tail[u] = a.tail[v]

	for _, e := range c.merged {
		a.patchRow(e.to, u, v, e.cnt)
	}
	for _, s := range c.sets {
		a.bestTo[s.slot], a.bestG[s.slot] = s.to, s.g
	}
}

// bulkRepairFraction: a round's heap repair switches from per-entry sifts
// to BulkUpdate + one Fix when the publications amount to at least 1/8 of
// the heap array — below that, n·log sifts beat an O(len) heapify.
const bulkRepairFraction = 8

// repairHeap applies the round's heap mutations serially: invalidate each
// merged-away partner, publish every repaired best. Large rounds use the
// lazy heap's bulk path (append all entries, heapify once).
func (b *batcher) repairHeap(kept int) {
	a := b.a
	total := 0
	for i := 0; i < kept; i++ {
		total += len(b.cands[i].pubs)
	}
	bulk := total*bulkRepairFraction >= a.heap.Len()
	for i := 0; i < kept; i++ {
		c := &b.cands[i]
		a.heap.Invalidate(int(c.v))
		for _, p := range c.pubs {
			switch {
			case p.drop:
				a.heap.Invalidate(int(p.slot))
			case bulk:
				a.heap.BulkUpdate(int(p.slot), p.id, p.prio)
			default:
				a.heap.Update(int(p.slot), p.id, p.prio)
			}
		}
		a.pool = append(a.pool, c.retired[0], c.retired[1])
		c.retired[0], c.retired[1] = nil, nil
		c.merged = nil
	}
	if bulk {
		a.heap.Fix()
	}
}

// BenchAgglomerateParallel runs the batched merge engine over a prebuilt
// CSR link table with the given worker count, exported for the
// `rockbench -merge` sweep; it is the same agglomerateParallel the
// pipeline dispatches to when Config.Workers exceeds one.
func BenchAgglomerateParallel(n int, lt *linkage.Compact, k int, f float64, workers int) (clusters, merges int) {
	res := agglomerateParallel(n, lt, k, RockGoodness, f, 0, 0, false, workers)
	return len(res.clusters), res.merges
}
