// Package serve is the query-serving subsystem: a sharded, coalescing
// front end that turns the mmdr library into a service. The concurrency
// design is ownership-based rather than lock-based:
//
//   - The index is replicated across N shards. Each shard's replica is
//     owned by exactly one worker goroutine (per-shard goroutine affinity)
//     — after startup no index is ever touched by two goroutines, so
//     queries run without read locks and with warm per-shard caches.
//   - Read requests are dispatched round-robin and coalesced inside the
//     shard worker into micro-batches that flush into the fused
//     BatchKNN/BatchRange engine when a tile fills or the shard queue is
//     empty. The worker is work-conserving: a lone request runs at once as
//     a tile of one, and requests that arrive while a tile runs queue up
//     and leave together as the next tile, so under load the batch
//     kernels amortize partition scans across requests without any timer.
//   - Writes (Insert/Delete) and model swaps go through a single
//     sequencer goroutine that broadcasts each mutation to every shard in
//     one global order, keeping the replicas in lockstep. Replicas answer
//     identically because they start from gob-identical models and apply
//     the identical write sequence.
//   - Admission control is a bounded queue per shard plus a bounded write
//     queue; when every queue is full the request is rejected immediately
//     (HTTP 429) instead of growing unbounded in-flight state.
//   - Hot reload builds the new replica set off to the side, then swaps it
//     through the sequencer like any other write: each in-flight request
//     runs entirely against one snapshot, never a mix.
//
// Close drains in reverse admission order: new requests are refused, the
// HTTP layer quiesces, in-flight requests finish against live workers, and
// only then do the workers and sequencer exit. internal/verify's leak and
// watchdog helpers hold this package to that contract under `-race`
// (`make racegate`).
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mmdr"
	"mmdr/internal/metrics"
)

// Defaults for Options zero values.
const (
	DefaultQueueDepth = 256
	DefaultMaxBatch   = 8 // matches the fused engine's batch tile
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrOverloaded means every admission queue was full (HTTP 429).
	ErrOverloaded = errors.New("serve: overloaded, request rejected")
	// ErrClosed means the server is shutting down (HTTP 503).
	ErrClosed = errors.New("serve: server closed")
)

// Options configures a Server.
type Options struct {
	// Shards is the number of index replicas, each owned by one worker
	// goroutine. 0 selects 1. More shards buy read throughput at the cost
	// of replica memory and write fan-out.
	Shards int
	// QueueDepth bounds each shard's request queue and the write queue;
	// full queues reject (ErrOverloaded). 0 selects DefaultQueueDepth.
	QueueDepth int
	// MaxBatch caps the coalescing tile: a shard flushes its pending
	// batch to the fused engine when this many compatible requests are
	// buffered, and flushes a partial batch as soon as its queue is empty.
	// 0 selects DefaultMaxBatch.
	MaxBatch int
	// Workers bounds the intra-shard parallelism of one flushed batch
	// (the BatchKNN worker count). 0 selects 1 — the shard itself is the
	// unit of parallelism.
	Workers int
	// Metrics, when non-nil, receives per-endpoint latency histograms,
	// admission counters, and the replicas' per-operation instruments.
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// opKind discriminates queued requests.
type opKind uint8

const (
	opKNN opKind = iota
	opRange
	opInsert
	opDelete
	opSwap
)

// request is one queued operation. done is buffered (capacity 1) so a
// worker can always respond without blocking, even if the waiter is gone.
type request struct {
	kind opKind
	q    []float64 // knn/range query vector, insert point
	k    int       // knn
	r    float64   // range radius
	id   int       // delete target

	// swap payload: one fresh replica per shard, assigned by the sequencer.
	newIdx  *mmdr.Index
	newDim  int
	newN    int
	replica []*mmdr.Index

	done chan response
}

type response struct {
	neighbors []mmdr.Neighbor
	id        int
	found     bool
	err       error
}

// Server is a running sharded query server. Create with New, stop with
// Close. All exported methods are safe for concurrent use.
type Server struct {
	opts Options

	// Admission gate: closing flips under mu; begin/end bracket every
	// in-flight request so Close can drain before stopping workers.
	mu       sync.RWMutex
	closing  bool
	inflight sync.WaitGroup
	closed   chan struct{} // closed when shutdown completes

	shards []*shard
	next   atomic.Uint64 // round-robin read dispatch cursor
	writeQ chan *request

	stop chan struct{} // tells workers + sequencer to drain and exit
	wg   sync.WaitGroup

	// Live model identity, maintained by the sequencer/swap path so no
	// reader ever touches a Model concurrently with writers.
	dim    atomic.Int64
	points atomic.Int64
	gen    atomic.Int64

	met serveMetrics

	httpMu sync.Mutex
	hsrv   *httpServer // non-nil once Start ran
}

// serveMetrics caches the per-endpoint instruments (nil-safe: a Server
// without a registry records nothing).
type serveMetrics struct {
	knn, rng, ins, del, reload *metrics.Op
	rejected, errs             *metrics.Counter
	batches, batchedQueries    *metrics.Counter
	flushFull, flushIdle       *metrics.Counter
	shardsG, genG, pointsG     *metrics.Gauge
}

func newServeMetrics(reg *metrics.Registry) serveMetrics {
	if reg == nil {
		return serveMetrics{}
	}
	return serveMetrics{
		knn:            reg.Op("serve:knn"),
		rng:            reg.Op("serve:range"),
		ins:            reg.Op("serve:insert"),
		del:            reg.Op("serve:delete"),
		reload:         reg.Op("serve:reload"),
		rejected:       reg.Counter("serve:rejected"),
		errs:           reg.Counter("serve:errors"),
		batches:        reg.Counter("serve:batches"),
		batchedQueries: reg.Counter("serve:batched_queries"),
		flushFull:      reg.Counter("serve:flush_full"),
		flushIdle:      reg.Counter("serve:flush_idle"),
		shardsG:        reg.Gauge("serve:shards"),
		genG:           reg.Gauge("serve:generation"),
		pointsG:        reg.Gauge("serve:points"),
	}
}

// New builds a server over model: one index replica per shard (the model
// itself backs shard 0; further shards get gob-deep-copies so writes stay
// isolated per replica), then starts the shard workers and the write
// sequencer. The server owns the model afterwards — do not query or
// mutate it directly.
func New(model *mmdr.Model, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts:   opts,
		closed: make(chan struct{}),
		writeQ: make(chan *request, opts.QueueDepth),
		stop:   make(chan struct{}),
		met:    newServeMetrics(opts.Metrics),
	}
	replicas, err := s.buildReplicas(model)
	if err != nil {
		return nil, err
	}
	s.shards = make([]*shard, opts.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{
			id:    i,
			queue: make(chan *request, opts.QueueDepth),
			idx:   replicas[i],
		}
	}
	s.dim.Store(int64(model.Dim()))
	s.points.Store(int64(model.N()))
	s.met.setGauges(len(s.shards), 0, int64(model.N()))
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.runShard(sh)
	}
	s.wg.Add(1)
	go s.runSequencer()
	return s, nil
}

func (m *serveMetrics) setGauges(shards int, gen, points int64) {
	if m.shardsG == nil {
		return
	}
	m.shardsG.Set(int64(shards))
	m.genG.Set(gen)
	m.pointsG.Set(points)
}

// record accounts one endpoint latency (nil-safe).
func record(op *metrics.Op, start time.Time) {
	if op != nil {
		op.Record(time.Since(start))
	}
}

func inc(c *metrics.Counter) {
	if c != nil {
		c.Add(1)
	}
}

// begin admits one request; false means the server is closing.
func (s *Server) begin() bool {
	s.mu.RLock()
	if s.closing {
		s.mu.RUnlock()
		return false
	}
	s.inflight.Add(1)
	s.mu.RUnlock()
	return true
}

func (s *Server) end() { s.inflight.Done() }

// nextShard advances the round-robin read dispatch cursor.
//
//mmdr:hotpath one atomic add per read request
func (s *Server) nextShard(n int) int {
	return int(s.next.Add(1)-1) % n
}

// submitRead dispatches a read to a shard queue, trying every shard once
// starting from the round-robin cursor, and waits for the response.
//
// Admission is bounded by per-shard credits, not channel occupancy: a
// credit is held from enqueue until the answer is sent, so requests the
// worker has already moved into the batch it is gathering still count
// against QueueDepth: admitted-and-unanswered never exceeds it.
func (s *Server) submitRead(req *request) (response, error) {
	if !s.begin() {
		return response{}, ErrClosed
	}
	defer s.end()
	n := len(s.shards)
	start := s.nextShard(n)
	depth := int64(s.opts.QueueDepth)
	for i := 0; i < n; i++ {
		sh := s.shards[(start+i)%n]
		if sh.credits.Add(1) > depth {
			sh.credits.Add(-1)
			continue
		}
		select {
		case sh.queue <- req:
			return <-req.done, nil
		default:
			// Queue slots are also taken by sequencer broadcasts, which
			// hold no credit; give this one back and try the next shard.
			sh.credits.Add(-1)
		}
	}
	inc(s.met.rejected)
	return response{}, ErrOverloaded
}

// submitWrite hands a mutation to the sequencer and waits.
func (s *Server) submitWrite(req *request) (response, error) {
	if !s.begin() {
		return response{}, ErrClosed
	}
	defer s.end()
	select {
	case s.writeQ <- req:
		return <-req.done, nil
	default:
		inc(s.met.rejected)
		return response{}, ErrOverloaded
	}
}

// checkVec validates a vector against the live model dimensionality and
// rejects non-finite input: a coordinate that is ±Inf or NaN, or one so
// large that the squared norm overflows (JSON accepts 1e160), would give
// every distance the index computes the value +Inf or NaN.
func (s *Server) checkVec(v []float64) error {
	if d := int(s.dim.Load()); len(v) != d {
		return fmt.Errorf("serve: vector dimension %d, model wants %d", len(v), d)
	}
	var sq float64
	for _, x := range v {
		sq += x * x
	}
	if math.IsInf(sq, 0) || math.IsNaN(sq) {
		return fmt.Errorf("serve: vector is not finite (squared norm %g)", sq)
	}
	return nil
}

// KNN answers the k nearest neighbors of q through the serving path:
// admission, shard dispatch, coalescing, fused batch execution. Answers
// are exactly what the underlying Index.BatchKNN returns.
func (s *Server) KNN(q []float64, k int) ([]mmdr.Neighbor, error) {
	start := time.Now()
	if err := s.checkVec(q); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("serve: k must be positive, got %d", k)
	}
	req := &request{kind: opKNN, q: q, k: k, done: make(chan response, 1)}
	resp, err := s.submitRead(req)
	if err != nil {
		return nil, err
	}
	record(s.met.knn, start)
	if resp.err != nil {
		inc(s.met.errs)
		return nil, resp.err
	}
	return resp.neighbors, nil
}

// Range answers every point within r of q through the serving path.
func (s *Server) Range(q []float64, r float64) ([]mmdr.Neighbor, error) {
	start := time.Now()
	if err := s.checkVec(q); err != nil {
		return nil, err
	}
	if r < 0 {
		return nil, fmt.Errorf("serve: radius must be non-negative, got %g", r)
	}
	req := &request{kind: opRange, q: q, r: r, done: make(chan response, 1)}
	resp, err := s.submitRead(req)
	if err != nil {
		return nil, err
	}
	record(s.met.rng, start)
	if resp.err != nil {
		inc(s.met.errs)
		return nil, resp.err
	}
	return resp.neighbors, nil
}

// Insert adds a point to every replica (one global write order) and
// returns its row id.
func (s *Server) Insert(p []float64) (int, error) {
	start := time.Now()
	if err := s.checkVec(p); err != nil {
		return 0, err
	}
	req := &request{kind: opInsert, q: p, done: make(chan response, 1)}
	resp, err := s.submitWrite(req)
	if err != nil {
		return 0, err
	}
	record(s.met.ins, start)
	if resp.err != nil {
		inc(s.met.errs)
		return 0, resp.err
	}
	return resp.id, nil
}

// Delete removes point id from every replica; found reports whether the
// point was indexed.
func (s *Server) Delete(id int) (bool, error) {
	start := time.Now()
	req := &request{kind: opDelete, id: id, done: make(chan response, 1)}
	resp, err := s.submitWrite(req)
	if err != nil {
		return false, err
	}
	record(s.met.del, start)
	if resp.err != nil {
		inc(s.met.errs)
		return false, resp.err
	}
	return resp.found, nil
}

// Status is a point-in-time view of the server for /statusz.
type Status struct {
	Shards     int   `json:"shards"`
	QueueDepth int   `json:"queue_depth"`
	MaxBatch   int   `json:"max_batch"`
	Workers    int   `json:"workers"`
	Dim        int   `json:"dim"`
	Points     int64 `json:"points"`
	Generation int64 `json:"generation"`
	Closing    bool  `json:"closing"`
}

// Stats snapshots the server's configuration and live model identity.
func (s *Server) Stats() Status {
	s.mu.RLock()
	closing := s.closing
	s.mu.RUnlock()
	return Status{
		Shards:     len(s.shards),
		QueueDepth: s.opts.QueueDepth,
		MaxBatch:   s.opts.MaxBatch,
		Workers:    s.opts.Workers,
		Dim:        int(s.dim.Load()),
		Points:     s.points.Load(),
		Generation: s.gen.Load(),
		Closing:    closing,
	}
}

// Close shuts the server down in drain order: refuse new requests, quiesce
// the HTTP layer, wait for every in-flight request to finish against live
// workers, then stop the workers and sequencer and wait for them to exit.
// The order rests on one invariant: a shard worker never blocks with a
// partial batch pending (it flushes whenever its queue runs empty), so
// every admitted request is answered by workers that are still running,
// and inflight.Wait needs no signal to the workers to return.
// Safe to call concurrently and repeatedly; every call returns only after
// shutdown completed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		<-s.closed
		return nil
	}
	s.closing = true
	s.mu.Unlock()

	s.closeHTTP()
	s.inflight.Wait()
	close(s.stop)
	s.wg.Wait()
	close(s.closed)
	return nil
}
