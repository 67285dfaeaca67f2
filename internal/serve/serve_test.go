package serve

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"

	"mmdr"
	"mmdr/internal/datagen"
	"mmdr/internal/metrics"
)

// testModel builds a small reduced model plus a query workload.
func testModel(t testing.TB, n, dim int, seed int64) (*mmdr.Model, [][]float64) {
	t.Helper()
	cfg := datagen.CorrelatedConfig{N: n, Dim: dim, NumClusters: 3, SDim: 3,
		VarRatio: 50, ScaleDecay: 0.75, Seed: seed}
	ds, _, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ds = datagen.Normalize(ds)
	model, err := mmdr.ReduceDataset(ds, mmdr.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	qs := datagen.SampleQueries(ds, 32, 0.05, seed+1)
	queries := make([][]float64, qs.N)
	for i := range queries {
		queries[i] = append([]float64(nil), qs.Point(i)...)
	}
	return model, queries
}

// directAnswers computes reference answers on an index built from an
// identical model copy.
func directAnswers(t testing.TB, model *mmdr.Model, queries [][]float64, k int) [][]mmdr.Neighbor {
	t.Helper()
	idx, err := model.NewIndex()
	if err != nil {
		t.Fatal(err)
	}
	flat := flatten(queries)
	out, err := idx.BatchKNN(flat, k)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func flatten(queries [][]float64) []float64 {
	var flat []float64
	for _, q := range queries {
		flat = append(flat, q...)
	}
	return flat
}

// cloneModel round-trips a model through its serialized form so tests can
// hold a pristine copy while the server owns the original.
func cloneModel(t testing.TB, m *mmdr.Model) *mmdr.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := mmdr.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameNeighbors asserts bitwise identity (IDs and Float64bits of the
// distances) between two answer lists.
func sameNeighbors(t testing.TB, what string, got, want []mmdr.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s: answer %d = {%d %v}, want {%d %v}", what, i,
				got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

func TestServedAnswersBitwiseIdentical(t *testing.T) {
	model, queries := testModel(t, 1200, 24, 7)
	ref := cloneModel(t, model)
	const k = 5
	want := directAnswers(t, ref, queries, k)

	for _, shards := range []int{1, 3} {
		srv, err := New(model, Options{Shards: shards, MaxBatch: 4})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		got := make([][]mmdr.Neighbor, len(queries))
		errs := make([]error, len(queries))
		for i := range queries {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = srv.KNN(queries[i], k)
			}(i)
		}
		wg.Wait()
		for i := range queries {
			if errs[i] != nil {
				t.Fatalf("shards=%d query %d: %v", shards, i, errs[i])
			}
			sameNeighbors(t, "knn", got[i], want[i])
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		// Next round serves from a fresh copy: the server owned this one.
		model = cloneModel(t, ref)
	}
}

func TestServedRangeMatchesDirect(t *testing.T) {
	model, queries := testModel(t, 800, 16, 3)
	ref := cloneModel(t, model)
	const r = 0.25
	idx, err := ref.NewIndex()
	if err != nil {
		t.Fatal(err)
	}
	want, err := idx.BatchRange(flatten(queries), r)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := New(model, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	got := make([][]mmdr.Neighbor, len(queries))
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nbs, err := srv.Range(queries[i], r)
			if err != nil {
				t.Errorf("range %d: %v", i, err)
				return
			}
			got[i] = nbs
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := range queries {
		sameNeighbors(t, "range", got[i], want[i])
	}
}

func TestWritesKeepReplicasConsistent(t *testing.T) {
	model, queries := testModel(t, 600, 16, 11)
	srv, err := New(model, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Insert a few new points; ids must be assigned consistently.
	base := srv.Stats().Points
	var ids []int
	for i := 0; i < 5; i++ {
		p := append([]float64(nil), queries[i]...)
		id, err := srv.Insert(p)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if got := srv.Stats().Points; got != base+5 {
		t.Errorf("points gauge %d, want %d", got, base+5)
	}
	// Every replica must now answer identically — the inserted points are
	// their own nearest neighbors on whichever shard the query lands.
	for _, id := range ids {
		found, err := srv.Delete(id)
		if err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", id, found, err)
		}
	}
	if found, err := srv.Delete(ids[0]); err != nil || found {
		t.Fatalf("double delete: found=%v err=%v", found, err)
	}
	if got := srv.Stats().Points; got != base {
		t.Errorf("points gauge %d after deletes, want %d", got, base)
	}
}

func TestReloadSwapsModel(t *testing.T) {
	model, queries := testModel(t, 600, 16, 21)
	next, _ := testModel(t, 700, 16, 22)
	nextRef := cloneModel(t, next)

	reg := metrics.NewRegistry()
	srv, err := New(model, Options{Shards: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if gen := srv.Stats().Generation; gen != 0 {
		t.Fatalf("fresh generation %d", gen)
	}
	if err := srv.Reload(next); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Generation != 1 || st.Points != 700 {
		t.Fatalf("post-reload stats %+v", st)
	}
	// Served answers now come from the new model.
	const k = 3
	want := directAnswers(t, nextRef, queries[:4], k)
	for i, q := range queries[:4] {
		got, err := srv.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, "post-reload knn", got, want[i])
	}
}

// holdWorker parks sh's worker inside applyWrite: it queues a no-op swap
// (the replica swapped for itself) whose done channel is unbuffered, so
// the worker blocks sending the ack until release receives it. It returns
// once the worker has taken the swap off the queue, leaving every queue
// slot to the caller's requests.
func holdWorker(sh *shard) (release func()) {
	done := make(chan response)
	sh.queue <- &request{kind: opSwap, newIdx: sh.idx, done: done}
	for len(sh.queue) > 0 {
		time.Sleep(10 * time.Microsecond)
	}
	return func() { <-done }
}

// waitQueued blocks until n requests sit in sh's queue.
func waitQueued(sh *shard, n int) {
	for len(sh.queue) < n {
		time.Sleep(10 * time.Microsecond)
	}
}

func TestOverloadRejects(t *testing.T) {
	model, queries := testModel(t, 400, 16, 31)
	// One shard, two admission credits, worker held busy: exactly two
	// requests win credits and wait in the queue, so every other request
	// must reject immediately. Credits are held until the answer is sent,
	// not just while queued, so admitted-and-unanswered never exceeds
	// QueueDepth.
	srv, err := New(model, Options{Shards: 1, QueueDepth: 2, MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	release := holdWorker(srv.shards[0])

	const clients = 64
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			_, err := srv.KNN(queries[i%len(queries)], 3)
			errs <- err
		}(i)
	}
	// The two credit winners wait on the held worker; all 62 losers reject.
	for i := 0; i < clients-2; i++ {
		switch err := <-errs; err {
		case ErrOverloaded:
		case nil:
			t.Fatal("request served while the worker was held")
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	// Once the worker is released both winners must be answered, not
	// abandoned (the other half of the admission contract).
	release()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("admitted request failed: %v", err)
		}
	}
}

// TestQueuedReadsCoalesce holds the worker while MaxBatch compatible
// reads queue up: on release they must leave as exactly one full tile,
// with answers bitwise equal to direct BatchKNN.
func TestQueuedReadsCoalesce(t *testing.T) {
	model, queries := testModel(t, 800, 16, 61)
	const k, maxBatch = 5, 8
	queries = queries[:maxBatch]
	want := directAnswers(t, cloneModel(t, model), queries, k)
	reg := metrics.NewRegistry()
	srv, err := New(model, Options{Shards: 1, MaxBatch: maxBatch, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	batches, full := reg.Counter("serve:batches"), reg.Counter("serve:flush_full")

	sh := srv.shards[0]
	release := holdWorker(sh)
	got := make([][]mmdr.Neighbor, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = srv.KNN(queries[i], k)
		}(i)
	}
	waitQueued(sh, len(queries))
	b0, f0 := batches.Value(), full.Value()
	release()
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		sameNeighbors(t, "coalesced knn", got[i], want[i])
	}
	if d := batches.Value() - b0; d != 1 {
		t.Errorf("serve:batches went up by %d, want 1", d)
	}
	if d := full.Value() - f0; d != 1 {
		t.Errorf("serve:flush_full went up by %d, want 1", d)
	}
}

// TestLoneReadFlushesAtOnce: with one client there is never a second
// request to wait for, so every read must run as its own tile, flushed
// because the queue went empty.
func TestLoneReadFlushesAtOnce(t *testing.T) {
	model, queries := testModel(t, 400, 16, 71)
	reg := metrics.NewRegistry()
	srv, err := New(model, Options{Shards: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const calls = 50
	for i := 0; i < calls; i++ {
		if _, err := srv.KNN(queries[i%len(queries)], 3); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("serve:batches").Value(); got != calls {
		t.Errorf("serve:batches = %d after %d sequential reads, want %d", got, calls, calls)
	}
	if got := reg.Counter("serve:flush_idle").Value(); got != calls {
		t.Errorf("serve:flush_idle = %d after %d sequential reads, want %d", got, calls, calls)
	}
}

func TestClosedServerRefuses(t *testing.T) {
	model, queries := testModel(t, 400, 16, 41)
	srv, err := New(model, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.KNN(queries[0], 3); err != ErrClosed {
		t.Errorf("KNN after Close: %v, want ErrClosed", err)
	}
	if _, err := srv.Insert(queries[0]); err != ErrClosed {
		t.Errorf("Insert after Close: %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	model, queries := testModel(t, 400, 16, 51)
	srv, err := New(model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.KNN([]float64{1, 2, 3}, 3); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := srv.KNN(queries[0], 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := srv.Range(queries[0], -1); err == nil {
		t.Error("negative radius accepted")
	}
}
