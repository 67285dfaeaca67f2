package idist

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"mmdr/internal/iostat"
)

// TestKNNTraceMatchesKNN: tracing must not change the answers.
func TestKNNTraceMatchesKNN(t *testing.T) {
	ds, red := testSetup(t, 700, 12, 3, 210)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 10; qi++ {
		q := ds.Point(qi * 37)
		want := idx.KNN(q, 8)
		got, tr := idx.KNNTrace(q, 8)
		if tr == nil {
			t.Fatal("nil trace")
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
				t.Fatalf("query %d rank %d: %+v vs %+v", qi, i, got[i], want[i])
			}
		}
	}
}

// TestKNNTraceInvariants checks the structural promises of the explain:
// enough candidates to answer, a partition record per index partition with
// the right dimensionalities, and internally consistent totals.
func TestKNNTraceInvariants(t *testing.T) {
	ds, red := testSetup(t, 700, 12, 3, 211)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nParts := len(red.Subspaces)
	if len(red.Outliers) > 0 {
		nParts++
	}
	const k = 10
	for qi := 0; qi < 10; qi++ {
		q := ds.Point(qi * 41)
		nb, tr := idx.KNNTrace(q, k)
		if len(nb) != k {
			t.Fatalf("query %d: %d neighbors, want %d", qi, len(nb), k)
		}
		if tr.K != k {
			t.Fatalf("trace K = %d, want %d", tr.K, k)
		}
		if tr.Candidates < k {
			t.Fatalf("query %d: %d candidates < k=%d", qi, tr.Candidates, k)
		}
		if tr.Rounds < 1 || tr.FinalRadius <= 0 || tr.LeavesScanned < 1 {
			t.Fatalf("query %d: implausible trace %+v", qi, tr)
		}
		if len(tr.Partitions) != nParts {
			t.Fatalf("query %d: %d partition probes, want %d", qi, len(tr.Partitions), nParts)
		}
		sum := 0
		for pi, pr := range tr.Partitions {
			if pr.ID != pi {
				t.Fatalf("probe %d has ID %d", pi, pr.ID)
			}
			if pi < len(red.Subspaces) {
				if pr.Outlier || pr.Dim != red.Subspaces[pi].Dr {
					t.Fatalf("probe %d: dim %d outlier=%v, want subspace d_r=%d",
						pi, pr.Dim, pr.Outlier, red.Subspaces[pi].Dr)
				}
			} else if !pr.Outlier || pr.Dim != ds.Dim {
				t.Fatalf("outlier probe: %+v", pr)
			}
			if pr.DistToRef < 0 {
				t.Fatalf("probe %d: negative DistToRef", pi)
			}
			// Never-reached partitions must report the finite sentinel, not
			// the internal ±Inf bounds — infinities break JSON export.
			if math.IsInf(pr.ScanLo, 0) || math.IsInf(pr.ScanHi, 0) {
				t.Fatalf("probe %d: infinite scan bounds %v..%v", pi, pr.ScanLo, pr.ScanHi)
			}
			if pr.Candidates > 0 && pr.ScanLo > pr.ScanHi {
				t.Fatalf("probe %d: candidates without a scanned annulus", pi)
			}
			if pr.Exhausted {
				p := &idx.parts[pi]
				if pr.ScanLo > 0 || pr.ScanHi < p.maxRadius {
					t.Fatalf("probe %d marked exhausted but annulus [%v,%v] misses sphere radius %v",
						pi, pr.ScanLo, pr.ScanHi, p.maxRadius)
				}
			}
			sum += pr.Candidates
		}
		if sum != tr.Candidates {
			t.Fatalf("query %d: partition candidates sum %d != total %d", qi, sum, tr.Candidates)
		}
		if _, err := json.Marshal(tr); err != nil {
			t.Fatalf("query %d: trace does not marshal: %v", qi, err)
		}
	}
}

// TestKNNTraceJSON: the explain must export cleanly.
func TestKNNTraceJSON(t *testing.T) {
	ds, red := testSetup(t, 400, 10, 2, 212)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, tr := idx.KNNTrace(ds.Point(3), 5)
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back QueryTrace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Candidates != tr.Candidates || len(back.Partitions) != len(tr.Partitions) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, tr)
	}
}

// TestBatchKNNTraceMatchesKNNTrace: the explain is read off per-query tile
// state, so a query traced inside a full tile must report exactly what it
// reports alone — on the built layout and on one maintained by an Insert.
func TestBatchKNNTraceMatchesKNNTrace(t *testing.T) {
	ds, red := testSetup(t, 700, 12, 3, 213)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qs := equivQueries(ds, batchTile, 313)
	check := func(label string) {
		t.Helper()
		nbs, traces := idx.BatchKNNTrace(qs, 7, 1)
		for i, q := range qs {
			nb, tr := idx.KNNTrace(q, 7)
			sameNeighbors(t, label, nbs[i], nb)
			if !reflect.DeepEqual(traces[i], tr) {
				t.Fatalf("%s query %d: batch trace\n%+v\nsolo trace\n%+v", label, i, traces[i], tr)
			}
		}
	}
	check("layout")
	if _, err := idx.Insert(ds.Point(4)); err != nil {
		t.Fatal(err)
	}
	check("after insert")
}

// TestKNNTraceCandidatesMatchDistanceOps: every candidate the explain
// reports is one distance evaluation the cost counter charged, and the
// other way round.
func TestKNNTraceCandidatesMatchDistanceOps(t *testing.T) {
	ds, red := testSetup(t, 700, 12, 3, 214)
	var ctr iostat.Counter
	idx, err := Build(ds, red, Options{Counter: &ctr})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range equivQueries(ds, 6, 414) {
		before := ctr.Snapshot().DistanceOps
		_, tr := idx.KNNTrace(q, 9)
		sum := 0
		for _, pr := range tr.Partitions {
			sum += pr.Candidates
		}
		if ops := ctr.Snapshot().DistanceOps - before; int64(sum) != ops {
			t.Fatalf("trace reports %d candidates, counter charged %d distance ops", sum, ops)
		}
	}
}
