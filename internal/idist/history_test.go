package idist

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mmdr/internal/core"
	"mmdr/internal/datagen"
	"mmdr/internal/dataset"
	"mmdr/internal/index"
	"mmdr/internal/quant"
	"mmdr/internal/reduction"
)

// Write-history lockdown: FuzzWriteHistory decodes its bytes into a
// sequence of Insert and Delete calls on a small index and checks, after
// every step, that the maintained scan layout is deep-equal to a fresh
// rebuild and that every query path still answers like the frozen
// reference. The fixture is reduced once; each input writes to its own
// copy.

var (
	histOnce sync.Once
	histDS   *dataset.Dataset
	histRed  *reduction.Result
	histSets [2]*quant.Set // [outliers dropped?]: trained on that reduction
	histErr  error
)

func histSetup() error {
	histOnce.Do(func() {
		cfg := datagen.CorrelatedConfig{N: 300, Dim: 8, NumClusters: 3, SDim: 2, VarRatio: 20, Seed: 617}
		ds, _, err := cfg.Generate()
		if err != nil {
			histErr = err
			return
		}
		datagen.Normalize(ds)
		// Scattered points the subspaces do not represent: the reduction
		// makes them an outlier set.
		rng := rand.New(rand.NewSource(617))
		p := make([]float64, ds.Dim)
		for i := 0; i < 20; i++ {
			for j := range p {
				p[j] = 2*rng.Float64() - 0.5
			}
			ds.Append(p)
		}
		red, err := core.New(core.Params{Seed: 617, MaxEC: 5}).Reduce(ds)
		if err != nil {
			histErr = err
			return
		}
		if len(red.Outliers) == 0 {
			histErr = fmt.Errorf("fixture reduction has no outliers")
			return
		}
		histDS, histRed = ds, red
		for i, r := range []*reduction.Result{red, histReduction(true)} {
			if histSets[i], err = quant.TrainSet(ds, r, quant.Config{Blocks: 4, Bits: 4, Seed: 617}); err != nil {
				histErr = err
				return
			}
		}
	})
	return histErr
}

// histReduction returns a copy of the fixture reduction that Insert may
// grow without touching the shared one. With dropOutliers the copy has no
// outlier set, so the build makes no outlier partition and the first far
// insert creates one.
func histReduction(dropOutliers bool) *reduction.Result {
	red := *histRed
	red.Subspaces = make([]*reduction.Subspace, len(histRed.Subspaces))
	for i, s := range histRed.Subspaces {
		c := *s
		c.Members = append([]int(nil), s.Members...)
		c.Coords = append([]float64(nil), s.Coords...)
		red.Subspaces[i] = &c
	}
	red.Outliers = nil
	if !dropOutliers {
		red.Outliers = append([]int(nil), histRed.Outliers...)
	}
	return &red
}

// histIndex builds a fresh index over copies of the fixture. Mode bit 0
// attaches the quantizer, bit 1 drops the outlier partition.
func histIndex(t *testing.T, mode uint8) *Index {
	drop := int(mode>>1) & 1
	// Small pages hold a few entries per leaf, so inserts split leaves (and
	// renumber the later ones) often.
	opts := Options{PageSize: 256}
	if mode&1 != 0 {
		opts.Quant = histSets[drop]
	}
	idx, err := Build(histDS.Clone(), histReduction(drop == 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// histQueries are the fixed probes checked after every step, plus the
// last inserted point.
func histQueries(extra []float64) [][]float64 {
	qs := [][]float64{histDS.Point(0), histDS.Point(151), histDS.Point(histDS.N - 1)}
	if extra != nil {
		qs = append(qs, extra)
	}
	return qs
}

// checkHistoryStep asserts the write-history invariants on idx.
func checkHistoryStep(t *testing.T, step int, idx *Index, last []float64) {
	t.Helper()
	label := fmt.Sprintf("step %d", step)
	requireMirror(t, label, idx)
	const k, r = 7, 0.25
	qs := histQueries(last)
	batch := idx.BatchKNN(qs, k, 2)
	for qi, q := range qs {
		want := idx.ReferenceKNN(q, k)
		sameNeighbors(t, label+" knn", idx.KNN(q, k), want)
		sameNeighbors(t, label+" batch", batch[qi], want)
		sameNeighbors(t, label+" range", idx.Range(q, r), idx.ReferenceRange(q, r))
		if idx.HasQuantizer() {
			got, err := idx.KNNQuantized(q, k, idx.ds.N)
			if err != nil {
				t.Fatal(err)
			}
			sameUpToBoundaryTies(t, label+" quantized full budget", idx, got, idx.KNN(q, k))
		}
	}
}

// sameUpToBoundaryTies is sameNeighbors for two searches that may visit
// candidates in different orders. Distances must agree bitwise rank by
// rank, and IDs too, except within the group tied at the k-th distance:
// both heaps keep the first of equal candidates they see, so which exact
// duplicates make the cut depends on the visit order. Those IDs must still
// be distinct indexed points.
func sameUpToBoundaryTies(t *testing.T, label string, idx *Index, got, want []index.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	seen := make(map[int]bool, len(got))
	for i := range want {
		g, w := got[i], want[i]
		tied := w.Dist == want[len(want)-1].Dist
		if g.Dist != w.Dist || (g.ID != w.ID && !tied) || seen[g.ID] || idx.partOf[g.ID] < 0 {
			t.Fatalf("%s rank %d: got (%d, %v), want (%d, %v)", label, i, g.ID, g.Dist, w.ID, w.Dist)
		}
		seen[g.ID] = true
	}
}

// FuzzWriteHistory: every byte pair is one write. The first byte picks the
// operation, the second its argument:
//
//	0: insert a small perturbation of a fixture point (joins a subspace)
//	1: insert a far point (joins, or creates, the outlier partition)
//	2: insert an exact copy of a fixture point (duplicate key)
//	3: delete a record id (any id ever issued, so repeats and misses occur)
//	4: insert a vector with a non-finite coordinate (must be rejected)
func FuzzWriteHistory(f *testing.F) {
	if err := histSetup(); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), []byte{0, 5, 2, 9, 3, 5, 3, 9})
	f.Add(uint8(1), []byte{0, 17, 2, 17, 3, 17, 0, 40, 3, 255})
	f.Add(uint8(2), []byte{1, 0, 1, 1, 3, 0, 1, 200, 3, 44}) // creates the outlier partition
	f.Add(uint8(3), []byte{1, 3, 0, 8, 1, 9, 2, 8, 3, 1})    // quantized, outlier partition created uncoded
	f.Add(uint8(1), []byte{4, 0, 4, 1, 4, 2, 2, 100, 3, 100})
	f.Fuzz(func(t *testing.T, mode uint8, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		idx := histIndex(t, mode)
		n0 := histDS.N
		var last []float64
		for step := 0; step+1 < len(ops); step += 2 {
			op, arg := ops[step]%5, int(ops[step+1])
			if op == 3 {
				id := arg % idx.ds.N
				had := idx.partOf[id] >= 0
				size := idx.tree.Len()
				if got := idx.Delete(id); got != had {
					t.Fatalf("step %d: Delete(%d) = %v, indexed %v", step, id, got, had)
				}
				if had && idx.tree.Len() != size-1 {
					t.Fatalf("step %d: tree holds %d entries after a delete from %d", step, idx.tree.Len(), size)
				}
				checkHistoryStep(t, step, idx, last)
				continue
			}
			p := append([]float64(nil), histDS.Point(arg%n0)...)
			switch op {
			case 0:
				for j := range p {
					p[j] += 1e-3 * float64((arg+j)%7-3)
				}
			case 1:
				for j := range p {
					p[j] = 3 + float64(arg%13) + 0.5*float64(j%3)
				}
			case 4:
				p[arg%len(p)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[arg%3]
			}
			size, n := idx.tree.Len(), idx.ds.N
			id, err := idx.Insert(p)
			if op == 4 {
				if err == nil || idx.tree.Len() != size || idx.ds.N != n {
					t.Fatalf("step %d: non-finite insert err=%v, tree %d→%d, points %d→%d", step, err, size, idx.tree.Len(), n, idx.ds.N)
				}
			} else if err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			} else {
				last = idx.ds.Point(id)
			}
			checkHistoryStep(t, step, idx, last)
		}
	})
}
