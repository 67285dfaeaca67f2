package idist

import (
	"mmdr/internal/index"
	"mmdr/internal/matrix"
)

// queryScratch bundles every per-query buffer the tree-cursor search
// (knnInto, rangeInto) needs so a single query allocates nothing beyond its
// returned neighbor slice. A scratch is owned by one query at a time:
// single-query calls borrow one from the index's sync.Pool, batch queries
// hold one per worker for a whole chunk of queries.
//
// The two btree visit callbacks are bound once, when the scratch is created;
// per-scan parameters travel through scratch fields instead of fresh closure
// captures, which is what keeps the inner tree scans allocation-free.
type queryScratch struct {
	idx      *Index
	states   []queryState     // per-partition search state
	projBuf  []float64        // backing array the states' proj views are carved from
	top      *index.TopK      // KNN accumulator (squared distances)
	rangeBuf []index.Neighbor // Range accumulator (squared distances)

	// Per-scan state read by the visit callbacks.
	q       []float64   // original-space query (outlier partition distances)
	part    *partition  // partition currently being scanned
	st      *queryState // its search state
	r2      float64     // Range predicate, squared
	abandon bool        // vectors long enough for early abandoning to pay off

	// Rounds run and final radius of the last knnInto, for the explain.
	rounds int
	radius float64

	visitKNN   func(key float64, rid uint32) bool
	visitRange func(key float64, rid uint32) bool
}

// getScratch returns a ready-to-use scratch sized for the index's current
// partition layout. Pair with putScratch.
func (idx *Index) getScratch() *queryScratch {
	sc, _ := idx.scratchPool.Get().(*queryScratch)
	if sc == nil {
		sc = &queryScratch{idx: idx, top: index.NewTopK(0)}
		sc.visitKNN = sc.knnVisit
		sc.visitRange = sc.rangeVisit
	}
	sc.ensure()
	return sc
}

// putScratch returns a scratch to the pool. References into caller data are
// dropped so the pool never pins a query vector.
func (idx *Index) putScratch(sc *queryScratch) {
	sc.q, sc.part, sc.st = nil, nil, nil
	idx.scratchPool.Put(sc)
}

// ensure sizes the per-partition state for the index's current layout
// (Insert can add an outlier partition after Build) and carves each subspace
// partition's projection view out of the shared backing array.
func (sc *queryScratch) ensure() {
	idx := sc.idx
	n := len(idx.parts)
	if cap(sc.states) < n {
		sc.states = make([]queryState, n)
	}
	sc.states = sc.states[:n]
	sumDr := 0
	for pi := range idx.parts {
		if s := idx.parts[pi].sub; s != nil {
			sumDr += s.Dr
		}
	}
	if cap(sc.projBuf) < sumDr {
		sc.projBuf = make([]float64, sumDr)
	}
	off := 0
	for pi := range idx.parts {
		st := &sc.states[pi]
		if s := idx.parts[pi].sub; s != nil {
			st.proj = sc.projBuf[off : off+s.Dr]
			off += s.Dr
		} else {
			st.proj = nil
		}
	}
}

// beginScan primes the per-scan callback state for partition pi. The
// abandon flag is decided once per scan, not per candidate: subspace scans
// compare vectors of the partition's reduced dimensionality, outlier scans
// compare full-dimensional points, and only vectors of at least
// matrix.EarlyAbandonMinLen amortize the early-abandon bound checks.
func (sc *queryScratch) beginScan(pi int) {
	sc.part = &sc.idx.parts[pi]
	sc.st = &sc.states[pi]
	if sub := sc.part.sub; sub != nil {
		sc.abandon = sub.Dr >= matrix.EarlyAbandonMinLen
	} else {
		sc.abandon = sc.idx.ds.Dim >= matrix.EarlyAbandonMinLen
	}
}

// knnVisit evaluates one tree entry against the running top-k, in squared
// distance. The current k-th squared distance bounds the inner loop: a
// partial sum already above it proves the candidate cannot enter the heap,
// so the loop abandons early (candidates that survive get their exact,
// bit-identical squared distance — see matrix.SqDistEarlyAbandon).
//
//mmdr:hotpath innermost per-candidate callback of every KNN scan
func (sc *queryScratch) knnVisit(_ float64, rid uint32) bool {
	idx := sc.idx
	id := int(rid)
	var x, y []float64
	if sc.part.sub != nil {
		x, y = sc.st.proj, sc.part.sub.MemberCoords(int(idx.slotOf[id]))
	} else {
		x, y = idx.ds.Point(id), sc.q
	}
	var dSq float64
	if sc.abandon {
		dSq = matrix.SqDistEarlyAbandon(x, y, sc.top.Kth())
	} else {
		dSq = matrix.SqDist(x, y)
	}
	if idx.counter != nil {
		idx.counter.CountDistanceOps(1)
	}
	sc.st.cand++
	sc.top.Add(id, dSq)
	return true
}

// rangeVisit evaluates one tree entry against the squared query radius. The
// radius itself bounds the inner loop: an abandoned (partial) sum is already
// > r², so the d² ≤ r² filter rejects it either way, and accepted candidates
// carry their exact squared distance.
//
//mmdr:hotpath innermost per-candidate callback of every range scan
func (sc *queryScratch) rangeVisit(_ float64, rid uint32) bool {
	idx := sc.idx
	id := int(rid)
	var x, y []float64
	if sc.part.sub != nil {
		x, y = sc.st.proj, sc.part.sub.MemberCoords(int(idx.slotOf[id]))
	} else {
		x, y = idx.ds.Point(id), sc.q
	}
	var dSq float64
	if sc.abandon {
		dSq = matrix.SqDistEarlyAbandon(x, y, sc.r2)
	} else {
		dSq = matrix.SqDist(x, y)
	}
	if idx.counter != nil {
		idx.counter.CountDistanceOps(1)
	}
	if dSq <= sc.r2 {
		sc.rangeBuf = append(sc.rangeBuf, index.Neighbor{ID: id, Dist: dSq})
	}
	return true
}
