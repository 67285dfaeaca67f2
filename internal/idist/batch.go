package idist

import (
	"time"

	"mmdr/internal/index"
	"mmdr/internal/pool"
)

// Batch queries fan a workload of independent searches across a worker
// pool. The search read path touches the layout, the partition geometry,
// and the stored reduced coordinates — all immutable between writes — plus
// the attached cost Sink, which is the one piece of shared mutable state.
// With workers > 1 the Sink must therefore be goroutine-safe
// (AtomicCounter) or nil; a plain Counter is only safe at workers <= 1.
//
// Queries are split into contiguous chunks, one worker each, and every
// worker cuts its chunk into tiles of batchTile queries for the tile engine
// (fused.go), the same engine the solo entry points run with a tile of one.
// A batch allocates only the result slices.
//
// Results land at the same position as their query, so out[i] is exactly
// what the corresponding single-query call would have returned — bit for
// bit, at every worker count.

// BatchKNN answers len(queries) KNN queries using at most workers
// goroutines (workers <= 0 selects runtime.NumCPU()).
//
//mmdr:hotpath budget pinned by alloc_test: 2 + one result slice per query
func (idx *Index) BatchKNN(queries [][]float64, k, workers int) [][]index.Neighbor {
	return idx.batchKNN(queries, k, workers, nil)
}

// BatchKNNTrace is BatchKNN with a per-query structured explain: traces[i]
// records the search rounds and partition scans of queries[i], exactly as
// KNNTrace would for that query alone.
//
//mmdr:hotpath
func (idx *Index) BatchKNNTrace(queries [][]float64, k, workers int) ([][]index.Neighbor, []*QueryTrace) {
	traces := make([]*QueryTrace, len(queries))
	for i := range traces {
		traces[i] = &QueryTrace{K: k}
	}
	return idx.batchKNN(queries, k, workers, traces), traces
}

// batchKNN runs BatchKNN; a non-nil traces receives each query's explain,
// filled after its tile finishes.
//
//mmdr:hotpath
func (idx *Index) batchKNN(queries [][]float64, k, workers int, traces []*QueryTrace) [][]index.Neighbor {
	out := make([][]index.Neighbor, len(queries))
	if k <= 0 {
		return out
	}
	ops := idx.ops
	start := time.Now()
	pool.Chunks(pool.Workers(workers), len(queries), func(w, lo, hi int) {
		bs := idx.getBatchScratch()
		defer idx.putBatchScratch(bs)
		for t := lo; t < hi; t += batchTile {
			te := min(t+batchTile, hi)
			var ts time.Time
			if ops != nil {
				ts = time.Now()
			}
			idx.knnTile(bs, queries[t:te], k, 0, out[t:te])
			if traces != nil {
				for i := t; i < te; i++ {
					idx.tileTrace(bs, i-t, traces[i])
				}
			}
			if ops == nil {
				continue
			}
			// The fused pass interleaves the tile's queries, so per-query
			// latency is attributed as the tile average — counts stay one
			// record per query, in the worker's own shard cell, so
			// instrumentation adds no cross-worker contention.
			per := time.Since(ts) / time.Duration(te-t)
			for i := t; i < te; i++ {
				if ops.knn.RecordShard(w, per) {
					idx.captureSlowKNN(queries[i], k, per)
				}
			}
		}
	})
	if ops != nil {
		ops.batchKNN.Record(time.Since(start))
	}
	return out
}

// BatchRange answers len(queries) range queries of radius r using at most
// workers goroutines (workers <= 0 selects runtime.NumCPU()).
//
//mmdr:hotpath
func (idx *Index) BatchRange(queries [][]float64, r float64, workers int) [][]index.Neighbor {
	out := make([][]index.Neighbor, len(queries))
	ops := idx.ops
	start := time.Now()
	pool.Chunks(pool.Workers(workers), len(queries), func(w, lo, hi int) {
		bs := idx.getBatchScratch()
		defer idx.putBatchScratch(bs)
		for t := lo; t < hi; t += batchTile {
			te := min(t+batchTile, hi)
			var ts time.Time
			if ops != nil {
				ts = time.Now()
			}
			idx.rangeTile(bs, queries[t:te], r, out[t:te])
			if ops == nil {
				continue
			}
			per := time.Since(ts) / time.Duration(te-t)
			for i := t; i < te; i++ {
				ops.rng.RecordShard(w, per)
			}
		}
	})
	if ops != nil {
		ops.batchRange.Record(time.Since(start))
	}
	return out
}
