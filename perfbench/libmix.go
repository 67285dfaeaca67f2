package main

import (
	"fmt"
	"runtime"
	"time"

	"mmdr"
)

// oracle holds the exact answers every library-mix query is checked
// against, computed by the sequential-scan baseline over the same model.
type oracle struct {
	pool   [][]float64
	flat   []float64 // pool, row-major, for BatchKNN tiles
	knn    [][]mmdr.Neighbor
	rng    [][]mmdr.Neighbor
	radius float64
}

// newOracle answers the pool by sequential scan: KNN for every query,
// Range for the first rangePool as the prefix of a KNN large enough to
// reach past the radius.
func newOracle(m *mmdr.Model, pool [][]float64, radius float64) *oracle {
	ss := m.NewSeqScan()
	o := &oracle{pool: pool, flat: flat(pool), radius: radius,
		knn: make([][]mmdr.Neighbor, len(pool)), rng: make([][]mmdr.Neighbor, rangePool)}
	for i, q := range pool {
		o.knn[i] = ss.KNN(q, k)
		if i >= rangePool {
			continue
		}
		for kk := 64; ; kk *= 4 {
			nb := ss.KNN(q, kk)
			if len(nb) < kk || nb[len(nb)-1].Dist > radius {
				n := 0
				for n < len(nb) && nb[n].Dist <= radius {
					n++
				}
				o.rng[i] = nb[:n:n]
				break
			}
		}
	}
	return o
}

// meanRangeResults is the mean Range answer size over the pool.
func (o *oracle) meanRangeResults() float64 {
	var n int
	for _, r := range o.rng {
		n += len(r)
	}
	return float64(n) / float64(len(o.rng))
}

// libSamples accumulate the library mix's measurements over its slices.
type libSamples struct {
	knn, rng, qknn []float64 // µs per call
	gap            []float64 // µs between one call's return and the next call
	batch          []float64 // µs per BatchKNN tile
	batchQueries   int
	recallHit      int
	recallAll      int
	rounds         int // rounds so far; the next slice continues the query cycle
}

// run is one slice of the library mix: a closed loop with one in-process
// caller over idx that issues KNN, Range, KNNQuantized and a BatchKNN tile,
// one of each per round, for dur. Every call is timed and every answer is
// checked against the oracle; KNNQuantized answers are scored as recall@k
// against the exact answers.
func (s *libSamples) run(idx *mmdr.Index, o *oracle, dur time.Duration, rec *recorder, t *tally, reqBase int64) {
	n := len(o.pool)
	dim := len(o.pool[0])
	tiles := n / batchTile
	deadline := time.Now().Add(dur)
	var prev time.Time
	for ; time.Now().Before(deadline); s.rounds++ {
		i := s.rounds
		req := reqBase + 4*int64(i)

		// KNN.
		j := i % n
		t.attempt()
		t0 := time.Now()
		if !prev.IsZero() {
			s.gap = append(s.gap, us(t0.Sub(prev)))
		}
		nb := idx.KNN(o.pool[j], k)
		t1 := time.Now()
		rec.add("Index.KNN", t0, t1, -1, req)
		s.knn = append(s.knn, us(t1.Sub(t0)))
		if !sameAnswer(nb, o.knn[j]) {
			t.mismatch()
		}

		// Range.
		j = (i + 1) % rangePool
		t.attempt()
		t0 = time.Now()
		nb, err := idx.Range(o.pool[j], o.radius)
		t1 = time.Now()
		rec.add("Index.Range", t0, t1, -1, req+1)
		switch {
		case err != nil:
			t.fail()
		case !sameAnswer(nb, o.rng[j]):
			t.mismatch()
		default:
			s.rng = append(s.rng, us(t1.Sub(t0)))
		}

		// KNNQuantized.
		j = (i + 2) % n
		t.attempt()
		t0 = time.Now()
		nb, err = idx.KNNQuantized(o.pool[j], k, qBudget)
		t1 = time.Now()
		rec.add("Index.KNNQuantized", t0, t1, -1, req+2)
		if err != nil {
			t.fail()
		} else {
			s.qknn = append(s.qknn, us(t1.Sub(t0)))
			s.recallHit += overlap(nb, o.knn[j])
			s.recallAll += len(o.knn[j])
		}

		// One BatchKNN tile.
		tile := i % tiles
		t.attempt()
		t0 = time.Now()
		res, err := idx.BatchKNN(o.flat[tile*batchTile*dim:(tile+1)*batchTile*dim], k)
		t1 = time.Now()
		rec.add("Index.BatchKNN", t0, t1, -1, req+3)
		prev = time.Now()
		if err != nil {
			t.fail()
			continue
		}
		s.batchQueries += batchTile
		s.batch = append(s.batch, us(t1.Sub(t0)))
		for q, nb := range res {
			if !sameAnswer(nb, o.knn[tile*batchTile+q]) {
				t.mismatch()
				break
			}
		}
	}
}

// minRounds is the fewest library-mix rounds a run reports: each call's
// p99 needs 1000 samples.
const minRounds = 1100

// finish tops the mix up to minRounds, so a slow host still yields every
// p99 instead of failing the run.
func (s *libSamples) finish(idx *mmdr.Index, o *oracle, rec *recorder, t *tally, reqBase int64) {
	for s.rounds < minRounds {
		s.run(idx, o, 10*time.Millisecond, rec, t, reqBase)
	}
}

// overlap counts the IDs of got that appear in want.
func overlap(got, want []mmdr.Neighbor) int {
	n := 0
	for _, g := range got {
		for _, w := range want {
			if g.ID == w.ID {
				n++
				break
			}
		}
	}
	return n
}

// costPerQuery runs KNN over the whole pool once with ctr reset first and
// returns exact distance evaluations and simulated page reads per query,
// plus heap allocations per query from runtime.MemStats.
func costPerQuery(idx *mmdr.Index, o *oracle, ctr *mmdr.CostCounter) (dists, pages, allocs float64) {
	ctr.Reset()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range o.pool {
		idx.KNN(q, k)
	}
	runtime.ReadMemStats(&after)
	m := ctr.Metrics()
	n := float64(len(o.pool))
	return float64(m.DistanceOps) / n, float64(m.PageReads) / n, float64(after.Mallocs-before.Mallocs) / n
}

// recall is recall@k of the quantized answers.
func (s libSamples) recall() (float64, error) {
	if s.recallAll == 0 {
		return 0, fmt.Errorf("no KNNQuantized answers")
	}
	return float64(s.recallHit) / float64(s.recallAll), nil
}
