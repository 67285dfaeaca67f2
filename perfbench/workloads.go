package main

import (
	"fmt"
	"sort"
	"time"

	"mmdr"
	"mmdr/internal/metrics"
)

// Workload shape. Shares are of --seconds.
const (
	closedShare  = 0.75 // serve-closed: the /knn closed loop; the library mix gets the rest
	mixedShare   = 0.80 // serve-mixed: the open loop; the library mix gets the rest
	libShare     = 0.90 // lib-hist: the library mix; the served tail gets the rest
	closedSlices = 10   // serve-closed alternates this many slices of its two loops
	mixedRate    = 500  // serve-mixed read arrivals per second, far below the knee
	nWrites      = 3000 // closed-loop writes per serve tail (half Insert, half Delete)
	checkSample  = 128  // quiescent served answers checked before/after the mixed loop

	// Range radii, fixed per collection; the output states the mean answer
	// size.
	appendixARadius = 0.02
	corelRadius     = 0.05
)

// config is one pass of a workload.
type config struct {
	seed    int64
	seconds float64
	reps    int       // set-up repetitions; setup_s is their median
	rec     *recorder // nil for the untraced pass
}

func (c config) share(f float64) time.Duration {
	return time.Duration(f * c.seconds * float64(time.Second))
}

// result is one pass's measurements.
type result struct {
	setup              []float64 // s, per repetition
	heapMB             float64
	knn, rng, qknn, wr []float64 // µs
	lib                libSamples
	gaps               []float64 // generator lateness, µs
	rangeMean          float64   // mean Range answer size over the pool
	t                  tally
	layers             map[string]float64
}

// workloads maps a --workload name to its pass.
var workloads = map[string]func(config) (*result, error){
	"serve-closed": func(c config) (*result, error) { return serveWorkload(c, false) },
	"serve-mixed":  func(c config) (*result, error) { return serveWorkload(c, true) },
	"lib-hist":     libHist,
}

// traceOpts are the options a traced pass adds to a reduction.
func (c config) traceOpts(opts ...mmdr.Option) []mmdr.Option {
	if p := c.rec.progress(); p != nil {
		opts = append(opts, p)
	}
	return opts
}

// buildLayers records the reduction's per-layer numbers.
func (r *result) buildLayers(c config, m *mmdr.Model, reduceS float64) {
	r.layers["core.reduce_s"] = reduceS
	r.layers["core.partitions"] = float64(len(m.Subspaces()))
	r.layers["core.avg_dim"] = m.AvgDim()
	r.layers["core.outliers"] = float64(len(m.Outliers()))
	if c.rec != nil {
		r.layers["core.generate_ellipsoid_busy_s"] = c.rec.busy(mmdr.PhaseGenerate)
		r.layers["ellipkmeans.cluster_busy_s"] = c.rec.busy(mmdr.PhaseCluster)
		r.layers["core.dim_opt_busy_s"] = c.rec.busy(mmdr.PhaseDimOpt)
		r.layers["core.merge_busy_s"] = c.rec.busy(mmdr.PhaseMerge)
	}
}

// libIndex builds a library index, with a cost counter and a registry in
// the traced pass.
func libIndex(c config, m *mmdr.Model) (*mmdr.Index, *mmdr.CostCounter, *metrics.Registry, error) {
	if c.rec == nil {
		idx, err := m.NewIndex()
		return idx, nil, nil, err
	}
	ctr := &mmdr.CostCounter{}
	idx, err := m.NewIndex(mmdr.WithCostCounter(ctr))
	if err != nil {
		return nil, nil, nil, err
	}
	reg := metrics.NewRegistry()
	idx.SetRuntimeMetrics(reg)
	return idx, ctr, reg, nil
}

// libLayers records the library mix's idist/btree layer numbers; they
// need the traced pass's registry and cost counter.
func (r *result) libLayers(idx *mmdr.Index, o *oracle, ctr *mmdr.CostCounter, reg *metrics.Registry) {
	r.rng, r.qknn = r.lib.rng, r.lib.qknn
	r.rangeMean = o.meanRangeResults()
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	r.layers["idist.knn_p50_us"] = opP50(snap, "knn")
	r.layers["idist.range_p50_us"] = opP50(snap, "range")
	r.layers["idist.quant_knn_p50_us"] = opP50(snap, "knn_quantized")
	r.layers["idist.batch_knn_p50_us"] = opP50(snap, "batch_knn")
	dists, pages, allocs := costPerQuery(idx, o, ctr)
	r.layers["idist.dist_ops_per_query"] = dists
	r.layers["btree.pages_per_query"] = pages
	r.layers["idist.allocs_per_query"] = allocs
}

// serveLayers reads the serving layer's numbers from its registry.
// clientP50 is the caller-observed KNN p50 over the same requests.
func (r *result) serveLayers(reg *metrics.Registry, clientP50 float64) {
	snap := reg.Snapshot()
	knn, tile := opP50(snap, "serve:knn"), opP50(snap, "batch_knn")
	batches := counter(snap, "serve:batches")
	r.layers["serve.tile_us"] = tile
	r.layers["serve.queue_linger_us"] = knn - tile
	r.layers["serve.http_self_us"] = clientP50 - knn
	r.layers["serve.timer_flush_frac"] = counter(snap, "serve:flush_timer") / batches
	r.layers["serve.tile_fill"] = counter(snap, "serve:batched_queries") / batches
	r.layers["serve.rejected"] = counter(snap, "serve:rejected")
	r.layers["serve.write_p50_us"] = mergedP50(snap, "serve:insert", "serve:delete")
	r.layers["idist.insert_p50_us"] = opP50(snap, "insert")
	r.layers["idist.delete_p50_us"] = opP50(snap, "delete")
}

func opP50(s metrics.Snapshot, name string) float64 {
	for _, o := range s.Ops {
		if o.Name == name {
			return o.P50US
		}
	}
	return 0
}

func counter(s metrics.Snapshot, name string) float64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return float64(c.Value)
		}
	}
	return 0
}

// mergedP50 is the p50, in µs, of the union of several ops' histograms:
// the upper bound of the bucket holding the median.
func mergedP50(s metrics.Snapshot, names ...string) float64 {
	var buckets []metrics.BucketCount
	var total int64
	for _, o := range s.Ops {
		for _, n := range names {
			if o.Name == n {
				buckets = append(buckets, o.Buckets...)
				total += o.Count
			}
		}
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].UpperNS < buckets[j].UpperNS })
	var cum int64
	for _, b := range buckets {
		cum += b.Count
		if 2*cum >= total {
			return float64(b.UpperNS) / 1e3
		}
	}
	return 0
}

// serveWorkload is serve-closed (mixed=false) or serve-mixed (mixed=true)
// on the Appendix-A collection.
func serveWorkload(c config, mixed bool) (*result, error) {
	r := &result{layers: map[string]float64{}}
	ds, err := appendixA()
	if err != nil {
		return nil, err
	}
	var model *mmdr.Model
	d, err := c.rec.timed("mmdr.Reduce", -1, func() (err error) {
		model, err = mmdr.ReduceDataset(ds, c.traceOpts(mmdr.WithSeed(dataSeed))...)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("reduce: %w", err)
	}
	r.buildLayers(c, model, d.Seconds())
	raw, err := saveModel(model)
	if err != nil {
		return nil, err
	}
	model = nil
	r.layers["persist.model_bytes"] = float64(len(raw))
	pool := queries(ds, poolSize, c.seed)
	segs := int(mixedShare * c.seconds * mixedRate / segmentReads)
	writes := newWriteLoad(ds, nWrites/2, c.seed)
	if mixed {
		writes = newWriteLoad(ds, segs*segmentWrites/2+1, c.seed)
	}
	n := ds.N

	// The reference: a separately loaded clone, with a quantizer for the
	// library mix, answering the served pool by direct BatchKNN.
	cm, err := loadModel(raw)
	if err != nil {
		return nil, err
	}
	d, err = c.rec.timed("Model.TrainQuantizer", -1, func() error { return cm.TrainQuantizer(mmdr.QuantizeConfig{}) })
	if err != nil {
		return nil, fmt.Errorf("train quantizer: %w", err)
	}
	r.layers["quant.train_s"] = d.Seconds()
	r.layers["quant.code_bytes_per_vector"] = float64(cm.CodeBytesPerVector())
	ref, ctr, libReg, err := libIndex(c, cm)
	if err != nil {
		return nil, err
	}
	want, err := ref.BatchKNN(flat(pool), k)
	if err != nil {
		return nil, err
	}
	o := newOracle(cm, pool, appendixARadius)
	for j := range o.knn {
		r.t.attempt()
		if !sameAnswer(want[j], o.knn[j]) {
			r.t.mismatch()
		}
	}

	shards := 1
	if mixed {
		shards = 2
	}
	srv, loads, err := r.setupServers(c, raw, shards)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	r.layers["persist.load_s"] = median(loads)
	r.heapMB = liveHeapMB()

	// Request ids: the main loop from 0, the library mix from 1<<22,
	// writes from 1<<23.
	settle()
	if !mixed {
		// The closed loop and the library mix alternate in slices, so
		// both sample the whole run; the writes come last because the
		// first Insert drops the layout.
		bodies, err := knnBodies(pool)
		if err != nil {
			return nil, err
		}
		var st closedLoopStats
		for i := 0; i < closedSlices; i++ {
			st.run(srv, bodies, want, c.share(closedShare/closedSlices), c.rec, &r.t, 0)
			r.lib.run(ref, o, c.share((1-closedShare)/closedSlices), c.rec, &r.t, 1<<22)
		}
		r.lib.finish(ref, o, c.rec, &r.t, 1<<22)
		r.knn, r.gaps = st.lat, st.gap
		if r.wr, err = httpWriteLoop(srv, writes, n, c.rec, &r.t, 1<<23); err != nil {
			return nil, err
		}
		r.libLayers(ref, o, ctr, libReg)
		r.serveLayers(srv.reg, median(st.lat))
		return r, nil
	}

	// serve-mixed: quiescent check; mixed-loop segments alternating with
	// library-mix slices on the still-unwritten reference; then replay the
	// writes on the reference and check again.
	checkServed(srv, pool[:checkSample], want, &r.t)
	var st openStats
	for i := 0; i < segs; i++ {
		sched := poissonSchedule(c.seed<<8+int64(i), mixedRate, segmentReads)
		st.segment(srv.srv, pool, writes, sched, c.rec, &r.t, 0)
		r.lib.run(ref, o, c.share((1-mixedShare)/float64(segs)), c.rec, &r.t, 1<<22)
	}
	r.lib.finish(ref, o, c.rec, &r.t, 1<<22)
	r.knn, r.wr, r.gaps = st.read, st.write, st.late
	r.libLayers(ref, o, ctr, libReg)
	if err := st.replay(ref, n, &r.t); err != nil {
		return nil, err
	}
	after, err := ref.BatchKNN(flat(pool[:checkSample]), k)
	if err != nil {
		return nil, err
	}
	checkServed(srv, pool[:checkSample], after, &r.t)
	// In process there is no HTTP: the caller's self time is the call
	// overhead outside serve:knn, read from the Server.KNN spans.
	r.serveLayers(srv.reg, median(c.rec.durations("Server.KNN")))
	return r, nil
}

// setupServers times c.reps server set-ups (Load of the saved model,
// serve.New, Start) and keeps the last server running. It returns the Load
// times.
func (r *result) setupServers(c config, raw []byte, shards int) (*served, []float64, error) {
	var loads []float64
	var srv *served
	for i := 0; i < c.reps; i++ {
		if srv != nil {
			srv.close()
		}
		t0 := time.Now()
		parent := c.rec.open("setup", -1)
		s, load, err := startServer(raw, shards, c.rec, parent)
		if err != nil {
			return nil, nil, err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		c.rec.close(parent)
		loads = append(loads, load.Seconds())
		srv = s
	}
	return srv, loads, nil
}

// checkServed asks the server for each query in process and compares the
// answer bitwise with want.
func checkServed(s *served, pool [][]float64, want [][]mmdr.Neighbor, t *tally) {
	for j, q := range pool {
		t.attempt()
		nb, err := s.srv.KNN(q, k)
		if err != nil {
			t.fail()
			continue
		}
		if !sameAnswer(nb, want[j]) {
			t.mismatch()
		}
	}
}

// libHist is the lib-hist workload on the Corel proxy.
func libHist(c config) (*result, error) {
	r := &result{layers: map[string]float64{}}
	ds := corelProxy()
	pool := queries(ds, poolSize, c.seed)
	writes := newWriteLoad(ds, nWrites/2, c.seed)

	var m *mmdr.Model
	var idx *mmdr.Index
	var ctr *mmdr.CostCounter
	var reg *metrics.Registry
	// Reduce takes 12-16 s here, so this set-up runs at most twice: a third
	// would not fit the benchmark's total time budget.
	for i := 0; i < min(c.reps, 2); i++ {
		t0 := time.Now()
		parent := c.rec.open("setup", -1)
		dr, err := c.rec.timed("mmdr.Reduce", parent, func() (err error) {
			m, err = mmdr.ReduceDataset(ds, c.traceOpts(mmdr.WithSeed(dataSeed))...)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("reduce: %w", err)
		}
		dq, err := c.rec.timed("Model.TrainQuantizer", parent, func() error { return m.TrainQuantizer(mmdr.QuantizeConfig{}) })
		if err != nil {
			return nil, fmt.Errorf("train quantizer: %w", err)
		}
		_, err = c.rec.timed("Model.NewIndex", parent, func() (err error) {
			idx, ctr, reg, err = libIndex(c, m)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		c.rec.close(parent)
		r.buildLayers(c, m, dr.Seconds())
		r.layers["quant.train_s"] = dq.Seconds()
	}
	r.layers["quant.code_bytes_per_vector"] = float64(m.CodeBytesPerVector())
	r.heapMB = liveHeapMB()

	o := newOracle(m, pool, corelRadius)
	settle()
	r.lib.run(idx, o, c.share(libShare), c.rec, &r.t, 0)
	r.lib.finish(idx, o, c.rec, &r.t, 0)
	r.knn, r.gaps = r.lib.knn, r.lib.gap
	r.libLayers(idx, o, ctr, reg)

	// Served tail: the same model behind one shard, so the serving layer
	// and served writes are measured at Corel scale too.
	raw, err := saveModel(m)
	if err != nil {
		return nil, err
	}
	r.layers["persist.model_bytes"] = float64(len(raw))
	want, err := idx.BatchKNN(flat(pool), k)
	if err != nil {
		return nil, err
	}
	parent := c.rec.open("tail-setup", -1)
	srv, load, err := startServer(raw, 1, c.rec, parent)
	if err != nil {
		return nil, err
	}
	c.rec.close(parent)
	defer srv.close()
	r.layers["persist.load_s"] = load.Seconds()
	bodies, err := knnBodies(pool)
	if err != nil {
		return nil, err
	}
	var st closedLoopStats
	st.run(srv, bodies, want, c.share(1-libShare), c.rec, &r.t, 1<<22)
	if r.wr, err = httpWriteLoop(srv, writes, ds.N, c.rec, &r.t, 1<<23); err != nil {
		return nil, err
	}
	r.serveLayers(srv.reg, median(st.lat))
	return r, nil
}
