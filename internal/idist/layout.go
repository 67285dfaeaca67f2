package idist

// soaLayout is the structure-of-arrays mirror of the B⁺-tree's leaf level:
// every stored entry, in global ascending leaf order, with the partition
// vectors copied into per-partition row-major blocks ordered by that same
// leaf position. An annulus scan over tree keys then reads one contiguous
// block span instead of pointer-chasing a stored vector per entry — the
// partition-contiguous clustered layout the scan-speed literature argues
// for — and one pass over the span serves a whole query tile. The tile
// engine of fused.go is the only search that reads the layout; solo
// queries are tiles of one.
//
// The tree stays authoritative and the layout is its exact mirror: Build
// materializes it (rebuildLayout), and Insert and Delete splice the one
// entry they change into or out of every array (insertRow, deleteRow), so
// after any write history the layout is equal to a fresh rebuild of the
// current tree.
type soaLayout struct {
	// Global leaf-order arrays, parallel: entry p of the scan order has key
	// keys[p], record rids[p], and lives in leaf leafOf[p].
	keys   []float64
	rids   []uint32
	leafOf []int32

	// partStart[pi] is the first global position of partition pi's entries
	// (len nParts+1, partStart[nParts] == len(keys)). Partition key ranges
	// are disjoint and ascending, so each partition owns one contiguous
	// span of the global order.
	partStart []int

	// Per-partition row-major vector blocks: partition pi's entry at global
	// position p is row p-partStart[pi] of vecs[pi], a dims[pi]-wide copy of
	// its stored vector (reduced coordinates for subspace members, the
	// original-space point for outliers).
	vecs [][]float64
	dims []int

	// rowOf maps a record ID to its row within its partition's block
	// (-1 when the record is not in the tree). Indexed like partOf/slotOf.
	rowOf []int32

	// codes holds, when a quantizer is attached, partition pi's PQ codes as
	// a contiguous row-major block parallel to vecs[pi]: row r's code is
	// codes[pi][r*M : (r+1)*M] for the partition codebook's M sub-blocks.
	// nil without a quantizer; codes[pi] is nil for a partition the
	// quantizer does not cover (one created by Insert after training), which
	// the quantized scans serve with exact distances instead. Insert encodes
	// its new row, Delete removes it, so the codes track the vector blocks.
	codes [][]byte
}

// rebuildLayout materializes the SoA scan layout from the current tree:
// Build and SetQuantizer call it, and every later write keeps the result
// current in place (insertRow, deleteRow), so the layout always equals a
// fresh rebuild of the tree it mirrors. The rebuild walks every entry once —
// O(n) time and one extra copy of the stored vectors. Not safe concurrently
// with queries (ConcurrentIndex callers hold the write lock).
func (idx *Index) rebuildLayout() {
	nParts := len(idx.parts)
	total := idx.tree.Len()
	lay := &soaLayout{
		keys:      make([]float64, 0, total),
		rids:      make([]uint32, 0, total),
		leafOf:    make([]int32, 0, total),
		partStart: make([]int, nParts+1),
		vecs:      make([][]float64, nParts),
		dims:      make([]int, nParts),
		rowOf:     make([]int32, len(idx.partOf)),
	}
	for i := range lay.rowOf {
		lay.rowOf[i] = -1
	}

	// Pass 1: capture the global leaf order. Keys ascend and partition key
	// ranges are disjoint, so each partition's entries form one contiguous
	// span; a tree violating that is a corrupted index, not a layout state.
	counts := make([]int, nParts)
	lastPart := -1
	idx.tree.WalkLeaves(func(ord int, keys []float64, rids []uint32) bool {
		for i, rid := range rids {
			pi := int(idx.partOf[rid])
			if pi < 0 || pi < lastPart || pi >= nParts {
				panic("idist: tree leaf order does not follow the partition spans")
			}
			lastPart = pi
			counts[pi]++
			lay.keys = append(lay.keys, keys[i])
			lay.rids = append(lay.rids, rid)
			lay.leafOf = append(lay.leafOf, int32(ord))
		}
		return true
	})
	for pi := 0; pi < nParts; pi++ {
		lay.partStart[pi+1] = lay.partStart[pi] + counts[pi]
		if s := idx.parts[pi].sub; s != nil {
			lay.dims[pi] = s.Dr
		} else {
			lay.dims[pi] = idx.ds.Dim
		}
		lay.vecs[pi] = make([]float64, counts[pi]*lay.dims[pi])
	}

	// Pass 2: copy each entry's stored vector into its block row. Copies
	// preserve bitwise values, so distances computed from the block equal
	// distances computed from the original storage bit for bit.
	for p, rid := range lay.rids {
		pi := int(idx.partOf[rid])
		row := p - lay.partStart[pi]
		lay.rowOf[rid] = int32(row)
		d := lay.dims[pi]
		dst := lay.vecs[pi][row*d : (row+1)*d]
		if s := idx.parts[pi].sub; s != nil {
			copy(dst, s.MemberCoords(int(idx.slotOf[rid])))
		} else {
			copy(dst, idx.ds.Point(int(rid)))
		}
	}

	// Pass 3 (quantizer attached): encode every block row into the parallel
	// per-partition code blocks, in the same leaf order. Encoding is a
	// deterministic function of the stored vectors and the codebooks, so a
	// rebuild always reproduces identical codes. A partition the codebook
	// set does not cover (created by Insert after training) keeps a nil code
	// block and is served exactly by the quantized scans.
	if qs := idx.quant; qs != nil {
		lay.codes = make([][]byte, nParts)
		for pi := 0; pi < nParts; pi++ {
			if pi >= len(qs.Books) {
				continue
			}
			cb := qs.Books[pi]
			if cb == nil || cb.Dim != lay.dims[pi] {
				continue
			}
			n := counts[pi]
			d := lay.dims[pi]
			block := lay.vecs[pi]
			codes := make([]byte, n*cb.M)
			for row := 0; row < n; row++ {
				cb.EncodeInto(block[row*d:(row+1)*d], codes[row*cb.M:(row+1)*cb.M])
			}
			lay.codes[pi] = codes
		}
	}
	idx.layout = lay
}

// insertRow splices the entry the tree just stored for record rid — key
// key in partition pi, stored vector vec — into the layout. The tree places
// a new key after every equal key and every key of a later leaf is larger,
// so the entry's global position is the upper bound of key in keys.
//
//mmdr:hotpath
func (idx *Index) insertRow(pi int, key float64, rid uint32, vec []float64) {
	lay := idx.layout
	if pi == len(lay.vecs) {
		lay.addPartition(len(vec))
	}
	p := upperBound(lay.keys, key)
	row := p - lay.partStart[pi]
	lay.keys = spliceIn(lay.keys, p, 1)
	lay.keys[p] = key
	lay.rids = spliceIn(lay.rids, p, 1)
	lay.rids[p] = rid
	lay.leafOf = spliceIn(lay.leafOf, p, 1)
	for i := pi + 1; i < len(lay.partStart); i++ {
		lay.partStart[i]++
	}
	d := lay.dims[pi]
	lay.vecs[pi] = spliceIn(lay.vecs[pi], row*d, d)
	copy(lay.vecs[pi][row*d:(row+1)*d], vec)
	if lay.codes != nil && lay.codes[pi] != nil {
		cb := idx.quant.Books[pi]
		lay.codes[pi] = spliceIn(lay.codes[pi], row*cb.M, cb.M)
		cb.EncodeInto(vec, lay.codes[pi][row*cb.M:(row+1)*cb.M])
	}
	for len(lay.rowOf) < len(idx.partOf) {
		lay.rowOf = append(lay.rowOf, -1)
	}
	lay.renumberRows(pi, row)
	idx.relabelLeaves(p)
}

// deleteRow removes record rid's entry (partition pi) from the layout and
// returns its key. A lazy tree delete never removes a leaf, so the leaf
// ordinals of the remaining entries stay valid.
//
//mmdr:hotpath
func (idx *Index) deleteRow(pi int, rid uint32) float64 {
	lay := idx.layout
	row := int(lay.rowOf[rid])
	p := lay.partStart[pi] + row
	key := lay.keys[p]
	lay.keys = spliceOut(lay.keys, p, 1)
	lay.rids = spliceOut(lay.rids, p, 1)
	lay.leafOf = spliceOut(lay.leafOf, p, 1)
	for i := pi + 1; i < len(lay.partStart); i++ {
		lay.partStart[i]--
	}
	d := lay.dims[pi]
	lay.vecs[pi] = spliceOut(lay.vecs[pi], row*d, d)
	if lay.codes != nil && lay.codes[pi] != nil {
		m := idx.quant.Books[pi].M
		lay.codes[pi] = spliceOut(lay.codes[pi], row*m, m)
	}
	lay.rowOf[rid] = -1
	lay.renumberRows(pi, row)
	return key
}

// addPartition appends an empty partition of dimensionality d — the
// outlier partition Insert creates when the build produced none. Its vector
// block stays nil only until insertRow splices in the first row; no
// codebook covers it, so its code block stays nil.
func (lay *soaLayout) addPartition(d int) {
	lay.vecs = append(lay.vecs, nil)
	lay.dims = append(lay.dims, d)
	lay.partStart = append(lay.partStart, len(lay.keys))
	if lay.codes != nil {
		lay.codes = append(lay.codes, nil)
	}
}

// renumberRows rewrites rowOf for partition pi's rows from row on, after a
// splice shifted them.
func (lay *soaLayout) renumberRows(pi, row int) {
	ps := lay.partStart[pi]
	for p := ps + row; p < lay.partStart[pi+1]; p++ {
		lay.rowOf[lay.rids[p]] = int32(p - ps)
	}
}

// relabelLeaves refreshes leafOf after an insert at global position p. A
// leaf split renumbers every later leaf, so ordinals are rewritten from the
// leaf holding p on; the walk stops at the first later leaf whose ordinal
// is already right, which is the next leaf when no split happened.
func (idx *Index) relabelLeaves(p int) {
	leafOf := idx.layout.leafOf
	pos := 0
	idx.tree.WalkLeaves(func(ord int, keys []float64, _ []uint32) bool {
		end := pos + len(keys)
		if end <= p {
			pos = end
			return true
		}
		if pos > p && end > pos && leafOf[pos] == int32(ord) {
			return false
		}
		for ; pos < end; pos++ {
			leafOf[pos] = int32(ord)
		}
		return true
	})
}

// upperBound returns the first position whose key exceeds key. Unlike
// searchKeys it charges no key comparisons: splicing the in-memory mirror
// is not a page access of the paper's cost model (tree.Insert charges its
// own descent).
func upperBound(keys []float64, key float64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// spliceIn opens w slots at position at of s, shifting the tail right; the
// caller overwrites the opened slots.
func spliceIn[T any](s []T, at, w int) []T {
	var zero T
	for i := 0; i < w; i++ {
		s = append(s, zero)
	}
	copy(s[at+w:], s[at:len(s)-w])
	return s
}

// spliceOut removes the w elements of s starting at position at.
func spliceOut[T any](s []T, at, w int) []T {
	return s[:at+copy(s[at:], s[at+w:])]
}
