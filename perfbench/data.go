package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"mmdr"
	"mmdr/internal/datagen"
	"mmdr/internal/dataset"
)

// Data and query parameters shared by the workloads.
const (
	// dataSeed fixes each workload's collection: like the paper's Corel
	// set, the data is one fixed collection, and --seed draws the query
	// workload, arrival schedule and writes run against it.
	dataSeed = 1

	k          = 10    // neighbours per KNN query
	querySigma = 0.005 // queries are database points perturbed by this σ
	qBudget    = 128   // KNNQuantized candidate budget
	batchTile  = 8     // BatchKNN tile size
	poolSize   = 1024  // queries per run; every answer is checked
	rangePool  = 256   // Range cycles over the first rangePool queries
	loopback   = "127.0.0.1:0"
)

// appendixA is the synthetic collection of the paper's Appendix A at serving
// scale: n=100k, d=64, five rotated elongated clusters. MMDR finds 9
// partitions at average dimensionality 3 on it, and the reduced layout
// (~2.4 MB) fits in L2.
func appendixA() (*dataset.Dataset, error) {
	cfg := datagen.CorrelatedConfig{N: 100_000, Dim: 64, NumClusters: 5, SDim: 3,
		VarRatio: 25, ScaleDecay: 0.75, Seed: dataSeed}
	ds, _, err := cfg.Generate()
	if err != nil {
		return nil, fmt.Errorf("generating Appendix-A data: %w", err)
	}
	return datagen.Normalize(ds), nil
}

// corelProxy is the paper's Corel colour-histogram proxy, 70k×64: MMDR finds
// 109 partitions at average dimensionality 7.6 with 353 outliers.
func corelProxy() *dataset.Dataset {
	return datagen.ColorHistogram(70_000, 64, 12, 0.15, dataSeed)
}

// queries draws count queries from ds (database points perturbed by σ) with
// the workload seed and returns them as separate rows.
func queries(ds *dataset.Dataset, count int, seed int64) [][]float64 {
	qs := datagen.SampleQueries(ds, count, querySigma, seed)
	out := make([][]float64, count)
	for i := range out {
		out[i] = qs.Point(i)
	}
	return out
}

// flat concatenates rows into one row-major block.
func flat(rows [][]float64) []float64 {
	var out []float64
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// saveModel serializes m, the form every served replica and check clone is
// loaded from.
func saveModel(m *mmdr.Model) ([]byte, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, fmt.Errorf("saving model: %w", err)
	}
	return buf.Bytes(), nil
}

// loadModel is a fresh clone of a saved model. serve.New takes ownership
// of its model and shard 0 mutates it on Insert, so every server and every
// reference index gets its own clone.
func loadModel(raw []byte) (*mmdr.Model, error) {
	m, err := mmdr.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("loading model: %w", err)
	}
	return m, nil
}

// settle collects garbage before a measured loop, so every loop starts
// from the same point of the collector's cycle instead of inheriting set-up
// garbage.
func settle() { runtime.GC() }

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// sameAnswer reports whether two answers are bitwise equal: same IDs in
// the same order and identical float64 bits for every distance.
func sameAnswer(got, want []mmdr.Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return false
		}
	}
	return true
}

// permutation is a seeded random permutation of [0, n).
func permutation(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
