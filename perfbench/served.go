package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"mmdr"
	"mmdr/internal/datagen"
	"mmdr/internal/dataset"
	"mmdr/internal/metrics"
	"mmdr/internal/serve"
)

// served is one running server with its registry and HTTP client.
type served struct {
	srv    *serve.Server
	reg    *metrics.Registry
	base   string
	client *http.Client
}

// startServer loads a fresh clone of the saved model and serves it with
// mmdrserve's defaults (registry attached, 200 µs linger) and the given
// shard count: the set-up a serve workload times. Each step is a span. It
// also returns how long the Load took.
func startServer(raw []byte, shards int, rec *recorder, parent int32) (*served, time.Duration, error) {
	var m *mmdr.Model
	load, err := rec.timed("mmdr.Load", parent, func() (err error) {
		m, err = loadModel(raw)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	reg := metrics.NewRegistry()
	var srv *serve.Server
	_, err = rec.timed("serve.New", parent, func() (err error) {
		srv, err = serve.New(m, serve.Options{Shards: shards, Metrics: reg})
		return err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("serve.New: %w", err)
	}
	var base string
	_, err = rec.timed("Server.Start", parent, func() error {
		addr, err := srv.Start(loopback)
		if err != nil {
			return err
		}
		base = "http://" + addr.String()
		return nil
	})
	if err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("Server.Start: %w", err)
	}
	// One connection: the closed loop is a single caller.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	return &served{srv: srv, reg: reg, base: base, client: client}, load, nil
}

// close stops the server and drops the client's idle connection.
func (s *served) close() {
	s.client.Transport.(*http.Transport).CloseIdleConnections()
	s.srv.Close()
}

// post sends one JSON request and decodes a 200 answer into out. It
// returns the HTTP status (0 on a transport error).
func (s *served) post(path string, body []byte, out any) (int, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck — drain for keep-alive
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// account books one HTTP outcome; it reports whether the answer may be
// checked.
func account(t *tally, status int, err error) bool {
	switch {
	case status == http.StatusTooManyRequests:
		t.refuse()
	case err != nil || status != http.StatusOK:
		t.fail()
	default:
		return true
	}
	return false
}

// fromJSON converts a wire answer back to index answers.
func fromJSON(nbs []serve.NeighborJSON) []mmdr.Neighbor {
	out := make([]mmdr.Neighbor, len(nbs))
	for i, n := range nbs {
		out[i] = mmdr.Neighbor{ID: n.ID, Dist: n.Dist}
	}
	return out
}

// knnBodies marshals one /knn request body per pool query.
func knnBodies(pool [][]float64) ([][]byte, error) {
	bodies := make([][]byte, len(pool))
	for i, q := range pool {
		b, err := json.Marshal(serve.KNNRequest{Q: q, K: k})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// closedLoopStats accumulate a closed HTTP loop's measurements over its
// slices.
type closedLoopStats struct {
	lat []float64 // client round trip, µs
	gap []float64 // generator gap between a response and the next send, µs
	n   int       // requests so far; the next slice continues the pool cycle
}

// run is one slice of the closed loop on one HTTP connection: it sends
// /knn with k=10 for dur, each request after the previous answer. Every
// answer is compared bitwise with want (direct BatchKNN on a separately
// loaded clone of the same model).
func (st *closedLoopStats) run(s *served, bodies [][]byte, want [][]mmdr.Neighbor, dur time.Duration, rec *recorder, t *tally, reqBase int64) {
	deadline := time.Now().Add(dur)
	var prev time.Time
	for ; ; st.n++ {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		if !prev.IsZero() {
			st.gap = append(st.gap, us(t0.Sub(prev)))
		}
		j := st.n % len(bodies)
		t.attempt()
		var out serve.NeighborsResponse
		status, err := s.post("/knn", bodies[j], &out)
		t1 := time.Now()
		rec.add("http:/knn", t0, t1, -1, reqBase+int64(st.n))
		if account(t, status, err) {
			st.lat = append(st.lat, us(t1.Sub(t0)))
			if !sameAnswer(fromJSON(out.Neighbors), want[j]) {
				t.mismatch()
			}
		}
		prev = time.Now()
	}
}

// writeLoad is a deterministic write stream: Insert points drawn near the
// data, and Delete targets that are distinct original rows.
type writeLoad struct {
	points [][]float64
	delIDs []int
}

// newWriteLoad draws n inserts and n deletes from the seed.
func newWriteLoad(ds *dataset.Dataset, n int, seed int64) writeLoad {
	pts := datagen.SampleQueries(ds, n, querySigma, seed^0x1e5e)
	w := writeLoad{points: make([][]float64, n), delIDs: make([]int, n)}
	for i := range w.points {
		w.points[i] = pts.Point(i)
	}
	perm := permutation(ds.N, seed^0xde1)
	copy(w.delIDs, perm[:n])
	return w
}

// httpWriteLoop is a closed loop over the same connection that sends each
// write of w once, alternating /insert and /delete. An Insert must return
// the next row id (firstID, then one more per Insert answered) and a Delete
// must find its row.
func httpWriteLoop(s *served, w writeLoad, firstID int, rec *recorder, t *tally, reqBase int64) ([]float64, error) {
	var lat []float64
	nextID := firstID
	for i := 0; i < 2*len(w.points); i++ {
		insert := i%2 == 0
		var body []byte
		var err error
		path := "/insert"
		if insert {
			body, err = json.Marshal(serve.InsertRequest{P: w.points[i/2]})
		} else {
			path = "/delete"
			body, err = json.Marshal(serve.DeleteRequest{ID: w.delIDs[i/2]})
		}
		if err != nil {
			return nil, err
		}
		t.attempt()
		t0 := time.Now()
		var ir serve.InsertResponse
		var dr serve.DeleteResponse
		var status int
		if insert {
			status, err = s.post(path, body, &ir)
		} else {
			status, err = s.post(path, body, &dr)
		}
		t1 := time.Now()
		rec.add("http:"+path, t0, t1, -1, reqBase+int64(i))
		if !account(t, status, err) {
			continue
		}
		lat = append(lat, us(t1.Sub(t0)))
		switch {
		case insert && ir.ID != nextID, !insert && !dr.Found:
			t.mismatch()
		}
		if insert {
			nextID++
		}
	}
	return lat, nil
}
