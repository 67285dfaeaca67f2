package idist

import (
	"math"
	"reflect"
	"runtime/debug"
	"testing"
)

// SoA-layout lockdown. The layout mirrors the tree's leaf level; these
// tests pin down that (a) it mirrors the tree exactly, (b) the fused batch
// kernels running over it are bitwise equivalent to the frozen reference
// and the sequential-scan oracle, and (c) Insert and Delete keep it equal
// to a fresh rebuild, so answers after writes match the reference.

// freshLayout returns what rebuildLayout makes of idx's current tree,
// leaving the maintained layout in place.
func freshLayout(idx *Index) *soaLayout {
	kept := idx.layout
	idx.rebuildLayout()
	fresh := idx.layout
	idx.layout = kept
	return fresh
}

// requireMirror fails the test unless the maintained layout is deep-equal
// to a fresh rebuild.
func requireMirror(t *testing.T, label string, idx *Index) {
	t.Helper()
	if !reflect.DeepEqual(idx.layout, freshLayout(idx)) {
		t.Fatalf("%s: maintained layout differs from a fresh rebuild", label)
	}
}

// TestLayoutMirrorsTree checks the structural contract: global keys in
// ascending leaf order, contiguous per-partition spans agreeing with
// partOf, rowOf the exact inverse of the row assignment, and block rows
// bitwise equal to the stored vectors they copy.
func TestLayoutMirrorsTree(t *testing.T) {
	for name, m := range equivModels(t) {
		lay := m.idx.layout
		if lay == nil {
			t.Fatalf("%s: Build left no layout", name)
		}
		if len(lay.keys) != m.idx.tree.Len() {
			t.Fatalf("%s: layout has %d entries, tree %d", name, len(lay.keys), m.idx.tree.Len())
		}
		if lay.partStart[len(m.idx.parts)] != len(lay.keys) {
			t.Fatalf("%s: partition spans cover %d entries, want %d",
				name, lay.partStart[len(m.idx.parts)], len(lay.keys))
		}
		for p := 1; p < len(lay.keys); p++ {
			if lay.keys[p] < lay.keys[p-1] {
				t.Fatalf("%s: layout keys out of order at %d", name, p)
			}
			if lay.leafOf[p] < lay.leafOf[p-1] {
				t.Fatalf("%s: leaf ordinals out of order at %d", name, p)
			}
		}
		for p, rid := range lay.rids {
			pi := int(m.idx.partOf[rid])
			if p < lay.partStart[pi] || p >= lay.partStart[pi+1] {
				t.Fatalf("%s: rid %d at position %d outside partition %d's span", name, rid, p, pi)
			}
			row := p - lay.partStart[pi]
			if int(lay.rowOf[rid]) != row {
				t.Fatalf("%s: rowOf[%d]=%d, want %d", name, rid, lay.rowOf[rid], row)
			}
			d := lay.dims[pi]
			got := lay.vecs[pi][row*d : (row+1)*d]
			var want []float64
			if s := m.idx.parts[pi].sub; s != nil {
				want = s.MemberCoords(int(m.idx.slotOf[rid]))
			} else {
				want = m.idx.ds.Point(int(rid))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: block row for rid %d differs from stored vector at dim %d", name, rid, i)
				}
			}
		}
	}
}

// TestBatchKNNBitIdenticalToReferenceAndOracle extends the equivalence
// lockdown to the fused batch path: per query, BatchKNN must match the
// frozen pre-kernel reference AND the sequential-scan oracle bitwise,
// across every reduction family, at several worker counts and batch sizes
// (full tiles, ragged tails, sub-tile batches).
func TestBatchKNNBitIdenticalToReferenceAndOracle(t *testing.T) {
	for name, m := range equivModels(t) {
		if m.idx.layout == nil {
			t.Fatalf("%s: no layout, batch would not take the fused path", name)
		}
		qs := equivQueries(m.ds, 21, 5150) // 2 full tiles + a 5-query tail
		for _, k := range []int{1, 5, 17} {
			for _, workers := range []int{1, 3} {
				batch := m.idx.BatchKNN(qs, k, workers)
				for qi, q := range qs {
					ref := m.idx.ReferenceKNN(q, k)
					oracle := m.scan.KNN(q, k)
					sameNeighbors(t, name+"/batch-ref", batch[qi], ref)
					sameNeighbors(t, name+"/batch-oracle", batch[qi], oracle)
				}
			}
		}
		// Sub-tile batches exercise the partial-tile edge.
		for _, nq := range []int{1, 3, batchTile} {
			batch := m.idx.BatchKNN(qs[:nq], 5, 1)
			for qi := 0; qi < nq; qi++ {
				sameNeighbors(t, name+"/subtile", batch[qi], m.scan.KNN(qs[qi], 5))
			}
		}
	}
}

// TestBatchRangeBitIdenticalToReferenceAndOracle is the range counterpart.
func TestBatchRangeBitIdenticalToReferenceAndOracle(t *testing.T) {
	for name, m := range equivModels(t) {
		qs := equivQueries(m.ds, 13, 2718)
		for _, r := range []float64{0, 0.05, 0.3, 1.5} {
			batch := m.idx.BatchRange(qs, r, 2)
			for qi, q := range qs {
				ref := m.idx.ReferenceRange(q, r)
				oracle := m.scan.Range(q, r)
				sameNeighbors(t, name+"/batch-ref", batch[qi], ref)
				sameNeighbors(t, name+"/batch-oracle", batch[qi], oracle)
			}
		}
	}
}

// TestLayoutMaintainedUnderWrites pins the dynamic-update contract: Insert
// and Delete keep the layout equal to a fresh rebuild, per-query and batch
// answers after each write equal the frozen reference, and a deleted point
// is unreachable.
func TestLayoutMaintainedUnderWrites(t *testing.T) {
	ds, red := testSetup(t, 800, 12, 3, 31)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qs := equivQueries(ds, 12, 777)
	check := func(label string) {
		t.Helper()
		requireMirror(t, label, idx)
		batch := idx.BatchKNN(qs, 9, 2)
		for qi, q := range qs {
			want := idx.ReferenceKNN(q, 9)
			sameNeighbors(t, label+"/solo", idx.KNN(q, 9), want)
			sameNeighbors(t, label+"/batch", batch[qi], want)
			sameNeighbors(t, label+"/range", idx.Range(q, 0.3), idx.ReferenceRange(q, 0.3))
		}
	}

	if _, err := idx.Insert(ds.Point(3)); err != nil {
		t.Fatal(err)
	}
	check("insert")
	if !idx.Delete(5) {
		t.Fatal("Delete(5) found nothing")
	}
	check("delete")
	for _, q := range qs[:4] {
		for _, nb := range idx.KNN(q, ds.N) {
			if nb.ID == 5 {
				t.Fatal("deleted point still reachable through the layout")
			}
		}
	}
	if idx.Delete(5) {
		t.Fatal("second Delete(5) reported a removal")
	}
}

// TestBatchRangeAllocationBudget pins the fused range path's allocation
// budget the way alloc_test.go pins the others: at workers=1 a batch costs
// the outer result slice, the worker closure's capture record, and one
// exact-size result copy per non-empty query.
func TestBatchRangeAllocationBudget(t *testing.T) {
	idx, q := withAllocFixture(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	queries := make([][]float64, 8)
	for i := range queries {
		queries[i] = q
	}
	const r = 0.4
	for _, res := range idx.BatchRange(queries, r, 1) { // warm pools, grow rangeBufs
		if len(res) == 0 {
			t.Fatal("fixture radius matches nothing; pick a radius with hits")
		}
	}
	budget := float64(2 + len(queries))
	if n := testing.AllocsPerRun(50, func() { idx.BatchRange(queries, r, 1) }); n != budget {
		t.Fatalf("BatchRange(workers=1) allocated %.1f objects per batch, budget is exactly %.0f", n, budget)
	}
}
