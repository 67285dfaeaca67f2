package idist

import (
	"math"
	"time"

	"mmdr/internal/index"
	"mmdr/internal/matrix"
)

// Range returns every point whose distance to q (in the partition metric:
// reduced coordinates for subspace members, original space for outliers) is
// at most r, sorted ascending by distance. Range queries are the other
// query class iDistance supports natively: the query sphere maps to one key
// annulus per partition, no iteration required.
//
//mmdr:hotpath budget pinned by alloc_test: 1 alloc non-empty, 0 empty
func (idx *Index) Range(q []float64, r float64) []index.Neighbor {
	if idx.ops == nil {
		return idx.rangeOne(q, r)
	}
	start := time.Now()
	out := idx.rangeOne(q, r)
	idx.ops.rng.Record(time.Since(start))
	return out
}

// rangeOne runs one range query as a tile of one over the layout, or
// through the tree cursors while the layout is dropped.
//
//mmdr:hotpath
func (idx *Index) rangeOne(q []float64, r float64) []index.Neighbor {
	if idx.layout == nil {
		sc := idx.getScratch()
		defer idx.putScratch(sc)
		return idx.rangeInto(sc, q, r)
	}
	bs := idx.getBatchScratch()
	defer idx.putBatchScratch(bs)
	qs := [1][]float64{q}
	var out [1][]index.Neighbor
	idx.rangeTile(bs, qs[:], r, out[:])
	return out[0]
}

// rangeInto runs the range scan through the tree cursors using sc's
// buffers — the path of an index whose layout a dynamic Insert/Delete
// dropped. Candidates are filtered and accumulated in SQUARED distance
// (d² ≤ r² selects the same ball as d ≤ r) with the single sqrt per result
// taken when materializing the returned slice — the only allocation of a
// non-empty query.
//
//mmdr:hotpath
func (idx *Index) rangeInto(sc *queryScratch, q []float64, r float64) []index.Neighbor {
	sc.q = q
	sc.r2 = r * r
	sc.rangeBuf = sc.rangeBuf[:0]
	for pi := range idx.parts {
		p := &idx.parts[pi]
		st := &sc.states[pi]
		var dist float64
		if p.sub != nil {
			p.sub.ProjectInto(q, st.proj)
			dist = math.Sqrt(matrix.SqNorm(st.proj))
		} else {
			dist = matrix.Dist(q, p.centroid)
		}
		lo := dist - r
		if lo < 0 {
			lo = 0
		}
		hi := dist + r
		if hi > p.maxRadius {
			hi = p.maxRadius
		}
		if lo > hi {
			continue // query sphere cannot reach this partition
		}
		base := float64(pi) * idx.c
		sc.beginScan(pi)
		idx.tree.RangeBetween(base+lo, base+hi, false, false, sc.visitRange)
	}
	if len(sc.rangeBuf) == 0 {
		return nil
	}
	// Squared distances sort in the same order as distances; sorting before
	// the sqrt keeps the comparison cheap and the result order identical.
	index.SortNeighbors(sc.rangeBuf)
	out := make([]index.Neighbor, len(sc.rangeBuf))
	copy(out, sc.rangeBuf)
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	return out
}

// Delete removes point id from the index. The B⁺-tree entry is deleted;
// the subspace's member slot is left in place (tombstoned) so the reduced
// coordinates of other members keep their offsets. It reports whether the
// point was present.
func (idx *Index) Delete(id int) bool {
	if idx.ops != nil {
		start := time.Now()
		ok := idx.delete(id)
		idx.ops.del.Record(time.Since(start))
		if ok {
			idx.ops.points.Add(-1)
		}
		return ok
	}
	return idx.delete(id)
}

func (idx *Index) delete(id int) bool {
	if id < 0 || id >= len(idx.partOf) || idx.partOf[id] < 0 {
		return false
	}
	pi := int(idx.partOf[id])
	p := &idx.parts[pi]
	var key float64
	if p.sub != nil {
		key = float64(pi)*idx.c + matrix.Norm2(p.sub.MemberCoords(int(idx.slotOf[id])))
	} else {
		key = float64(pi)*idx.c + matrix.Dist(idx.ds.Point(id), p.centroid)
	}
	if !idx.tree.Delete(key, uint32(id)) {
		return false
	}
	// The SoA layout mirrors the tree's leaf level; a structural change
	// invalidates it (queries fall back to the per-entry tree scan until
	// RebuildLayout).
	idx.layout = nil
	idx.partOf[id] = -1
	idx.slotOf[id] = -1
	return true
}
