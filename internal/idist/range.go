package idist

import (
	"time"

	"mmdr/internal/index"
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

// rangeOne runs one range query as a tile of one over the layout.
//
//mmdr:hotpath
func (idx *Index) rangeOne(q []float64, r float64) []index.Neighbor {
	bs := idx.getBatchScratch()
	defer idx.putBatchScratch(bs)
	qs := [1][]float64{q}
	var out [1][]index.Neighbor
	idx.rangeTile(bs, qs[:], r, out[:])
	return out[0]
}

// Delete removes point id from the index. The B⁺-tree entry and its
// scan-layout row are removed; the subspace's member slot is left in place (tombstoned) so the reduced
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
	// The layout mirrors the tree, so it holds the entry's exact key.
	key := idx.deleteRow(int(idx.partOf[id]), uint32(id))
	if !idx.tree.Delete(key, uint32(id)) {
		panic("idist: Delete found an entry in the layout that the tree lacks")
	}
	idx.partOf[id] = -1
	idx.slotOf[id] = -1
	return true
}
