package serve

import (
	"fmt"
	"sync/atomic"

	"mmdr"
)

// shard is one index replica plus its request queue. After the worker
// goroutine starts, idx and the coalescing buffers are touched by that
// goroutine only — per-shard goroutine affinity is the package's whole
// synchronization story for reads.
type shard struct {
	id    int
	queue chan *request
	idx   *mmdr.Index

	// credits counts reads admitted to this shard and not yet answered —
	// queued or in the batch being gathered. Admission caps it at
	// QueueDepth; the worker releases a credit with each answer.
	credits atomic.Int64

	// Coalescing state, owned by the worker. pending holds compatible
	// buffered requests (same kind and parameter); qbuf is the reused flat
	// row-major query buffer handed to the fused batch engine.
	pending []*request
	qbuf    []float64
}

// compatible reports whether req can join the shard's current pending
// batch: same operation, same parameter, same vector length (one
// mismatched-dimension request must error alone, not poison the batch).
func (sh *shard) compatible(req *request) bool {
	if len(sh.pending) == 0 {
		return true
	}
	head := sh.pending[0]
	if req.kind != head.kind || len(req.q) != len(head.q) {
		return false
	}
	switch req.kind {
	case opKNN:
		return req.k == head.k
	case opRange:
		//mmdr:ignore floatcmp batch compatibility groups by the exact radius the client sent; any tolerance would merge queries with different answers into one fused scan
		return req.r == head.r
	default:
		return false
	}
}

// gather builds the flat row-major query block of the pending batch into
// dst, reusing its capacity.
//
//mmdr:hotpath per-flush copy into the fused engine's input layout
func gather(dst []float64, pending []*request) []float64 {
	dst = dst[:0]
	for _, r := range pending {
		dst = append(dst, r.q...)
	}
	return dst
}

// runShard is the worker loop. It is work-conserving: it drains the queue
// greedily into the pending batch, flushing on tile-full or an
// incompatible request, and flushes whatever is pending the moment the
// queue is empty. Requests that arrive while a tile runs wait in the
// channel and the next drain takes them as one tile, so batching under
// load comes from the time a tile takes to run, not from a clock. Writes
// and swaps execute in arrival order relative to the reads around them.
// pending is empty whenever the worker blocks; on stop it drains the
// queue (everything admitted gets an answer) and exits.
func (s *Server) runShard(sh *shard) {
	defer s.wg.Done()
	dispatch := func(req *request) {
		switch req.kind {
		case opKNN, opRange:
			if !sh.compatible(req) {
				s.flushShard(sh)
			}
			sh.pending = append(sh.pending, req)
			if len(sh.pending) >= s.opts.MaxBatch {
				inc(s.met.flushFull)
				s.flushShard(sh)
			}
		default:
			// Writes and swaps serialize with the reads around them:
			// everything admitted before them must see pre-write state.
			s.flushShard(sh)
			s.applyWrite(sh, req)
		}
	}
	drain := func() {
		for {
			select {
			case req := <-sh.queue:
				dispatch(req)
			default:
				if len(sh.pending) > 0 {
					inc(s.met.flushIdle)
				}
				s.flushShard(sh)
				return
			}
		}
	}
	for {
		select {
		case req := <-sh.queue:
			dispatch(req)
			drain()
		case <-s.stop:
			// No new admissions can occur (Close waited out in-flight
			// requests first), so the queue empties in one pass.
			drain()
			return
		}
	}
}

// flushShard executes the pending batch against the shard's replica and
// distributes the answers. No-op on an empty batch.
func (s *Server) flushShard(sh *shard) {
	n := len(sh.pending)
	if n == 0 {
		return
	}
	head := sh.pending[0]
	sh.qbuf = gather(sh.qbuf, sh.pending)
	var results [][]mmdr.Neighbor
	var err error
	switch head.kind {
	case opKNN:
		results, err = sh.idx.BatchKNN(sh.qbuf, head.k)
	case opRange:
		results, err = sh.idx.BatchRange(sh.qbuf, head.r)
	}
	if s.met.batches != nil {
		s.met.batches.Add(1)
		s.met.batchedQueries.Add(int64(n))
	}
	for i, req := range sh.pending {
		if err != nil {
			req.done <- response{err: err}
		} else {
			req.done <- response{neighbors: results[i]}
		}
		sh.credits.Add(-1)
		sh.pending[i] = nil
	}
	sh.pending = sh.pending[:0]
}

// applyWrite executes one sequenced mutation (or swap) on this shard's
// replica and acks the sequencer.
func (s *Server) applyWrite(sh *shard, req *request) {
	switch req.kind {
	case opInsert:
		id, err := sh.idx.Insert(req.q)
		req.done <- response{id: id, err: err}
	case opDelete:
		found, err := sh.idx.Delete(req.id)
		req.done <- response{found: found, err: err}
	case opSwap:
		sh.idx = req.newIdx
		req.done <- response{}
	default:
		req.done <- response{err: fmt.Errorf("serve: shard %d: unknown op %d", sh.id, req.kind)}
	}
}
