package idist

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mmdr/internal/index"
)

func TestInsertIntoSubspace(t *testing.T) {
	ds, red := testSetup(t, 500, 10, 2, 131)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := idx.Tree().Len()

	// Insert a point that is a small perturbation of an existing member:
	// it must join that member's subspace.
	src := red.Subspaces[0].Members[0]
	p := make([]float64, ds.Dim)
	copy(p, ds.Point(src))
	for j := range p {
		p[j] += 1e-4
	}
	id, err := idx.Insert(p)
	if err != nil {
		t.Fatal(err)
	}
	if id != ds.N-1 {
		t.Fatalf("id = %d, want %d", id, ds.N-1)
	}
	if idx.Tree().Len() != before+1 {
		t.Fatalf("tree len %d, want %d", idx.Tree().Len(), before+1)
	}
	if idx.partOf[id] < 0 || int(idx.partOf[id]) >= len(red.Subspaces) {
		t.Fatalf("inserted point landed in partition %d, want a subspace", idx.partOf[id])
	}
	// Structural invariants still hold after insertion.
	if err := red.Validate(ds.N); err != nil {
		t.Fatal(err)
	}
	// The new point is findable: 1-NN of p should be p itself (dist ~0).
	res := idx.KNN(p, 1)
	if len(res) != 1 || res[0].ID != id || res[0].Dist > 1e-3 {
		t.Fatalf("1-NN after insert = %+v", res)
	}
}

func TestInsertOutlier(t *testing.T) {
	ds, red := testSetup(t, 500, 10, 2, 132)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A point far from every cluster must become an outlier.
	p := make([]float64, ds.Dim)
	for j := range p {
		p[j] = 40
	}
	id, err := idx.Insert(p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range red.Outliers {
		if o == id {
			found = true
		}
	}
	if !found {
		t.Fatal("far point not recorded as outlier")
	}
	res := idx.KNN(p, 1)
	if len(res) != 1 || res[0].ID != id || res[0].Dist > 1e-9 {
		t.Fatalf("1-NN of inserted outlier = %+v", res)
	}
}

func TestInsertDimensionMismatch(t *testing.T) {
	ds, red := testSetup(t, 300, 8, 2, 133)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Insert(make([]float64, 3)); err == nil {
		t.Fatal("expected dimension error")
	}
}

// TestInsertRejectsNonFinite: a NaN or infinite coordinate, or one whose
// square overflows, would give the point a key no search can order or
// reach. Insert must refuse it and leave the index exactly as it was.
func TestInsertRejectsNonFinite(t *testing.T) {
	ds, red := testSetup(t, 300, 8, 2, 137)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	size, n, before := idx.tree.Len(), ds.N, freshLayout(idx)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200} {
		p := make([]float64, ds.Dim)
		copy(p, ds.Point(0))
		p[3] = v
		if _, err := idx.Insert(p); err == nil {
			t.Fatalf("Insert with coordinate %v succeeded", v)
		}
		if idx.tree.Len() != size || ds.N != n || len(idx.partOf) != n {
			t.Fatalf("rejected insert of %v changed the index: tree %d→%d, points %d→%d", v, size, idx.tree.Len(), n, ds.N)
		}
		if !reflect.DeepEqual(idx.layout, before) {
			t.Fatalf("rejected insert of %v changed the layout", v)
		}
	}
}

// After a batch of insertions, iDistance must still agree with a fresh
// sequential scan over the (mutated) reduced representation.
func TestInsertBatchConsistency(t *testing.T) {
	ds, red := testSetup(t, 600, 10, 3, 134)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(135))
	for i := 0; i < 60; i++ {
		src := ds.Point(rng.Intn(ds.N))
		p := make([]float64, ds.Dim)
		copy(p, src)
		for j := range p {
			p[j] += rng.NormFloat64() * 0.002
		}
		if _, err := idx.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	scan := index.NewSeqScan(ds, red, nil)
	for trial := 0; trial < 10; trial++ {
		q := ds.Point(rng.Intn(ds.N))
		got := idx.KNN(q, 10)
		want := scan.KNN(q, 10)
		for i := range want {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("trial %d rank %d: %v vs %v", trial, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestInsertCreatesOutlierPartition(t *testing.T) {
	// Build from a reduction with no outliers, then insert a far point.
	ds, red := testSetup(t, 400, 8, 2, 136)
	red.Outliers = nil // force: no outlier partition at build time
	// Rebuild member-only reduction: drop any points that were outliers by
	// reassigning — simplest is to validate only the insert path.
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	partsBefore := len(idx.parts)
	p := make([]float64, ds.Dim)
	for j := range p {
		p[j] = -35
	}
	id, err := idx.Insert(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.parts) != partsBefore+1 {
		t.Fatalf("outlier partition not created: %d parts", len(idx.parts))
	}
	res := idx.KNN(p, 1)
	if len(res) == 0 || res[0].ID != id {
		t.Fatalf("inserted outlier not found: %+v", res)
	}
}
