package main

import (
	"errors"
	"sort"
	"sync"
	"time"

	"mmdr"
	"mmdr/internal/serve"
)

// Shape of one serve-mixed segment.
const (
	segmentReads  = 750                  // Poisson read arrivals per segment
	segmentWrites = 150                  // writes per segment, from one closed-loop writer
	writeThink    = 8 * time.Millisecond // the writer's pause between writes
)

// openStats accumulate the mixed loop's measurements over its segments.
type openStats struct {
	read     []float64 // µs from due time to answer, in arrival order
	write    []float64 // µs from send to answer
	late     []float64 // µs the read generator dispatched after the due time
	inserted map[int][]float64
	deleted  []int
	reads    int // reads so far, for pool cycling and request ids
	writes   int // writes so far; even ordinals Insert, odd Delete
}

// segment drives srv in process for one segment. Reads arrive open loop:
// read i is due at sched[i] after the segment starts and runs on its own
// goroutine, so a slow answer never holds back the schedule, and its
// latency is timed from the due time, so a stall also charges the reads it
// delays. Admission control bounds how many the server accepts. Writes come
// from one writer at the same time, closed loop with writeThink between
// them, alternating Insert and Delete. The segment ends when every request
// has been answered. Every read must hold k answers in ascending distance.
func (st *openStats) segment(srv *serve.Server, pool [][]float64, w writeLoad, sched []time.Duration, rec *recorder, t *tally, reqBase int64) {
	n := len(sched)
	lat := make([]float64, n)
	ok := make([]bool, n)
	if st.inserted == nil {
		st.inserted = map[int][]float64{}
	}

	// The writer.
	var wg sync.WaitGroup
	wlat := make([]float64, 0, segmentWrites)
	ins := map[int][]float64{}
	var del []int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < segmentWrites; j++ {
			if j > 0 {
				time.Sleep(writeThink)
			}
			ord := st.writes + j
			op := "Server.Insert"
			if ord%2 == 1 {
				op = "Server.Delete"
			}
			t.attempt()
			t0 := time.Now()
			var id int
			var found bool
			var err error
			if op == "Server.Insert" {
				id, err = srv.Insert(w.points[ord/2])
			} else {
				found, err = srv.Delete(w.delIDs[ord/2])
			}
			t1 := time.Now()
			rec.add(op, t0, t1, -1, reqBase+1<<21+int64(ord))
			switch {
			case errors.Is(err, serve.ErrOverloaded):
				t.refuse()
				continue
			case err != nil:
				t.fail()
				continue
			case op == "Server.Insert":
				ins[id] = w.points[ord/2]
			case !found:
				t.mismatch()
			default:
				del = append(del, w.delIDs[ord/2])
			}
			wlat = append(wlat, us(t1.Sub(t0)))
		}
	}()

	// The readers.
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(sched[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		st.late = append(st.late, us(sent.Sub(due)))
		q := pool[(st.reads+i)%len(pool)]
		id := reqBase + int64(st.reads+i)
		t.attempt()
		wg.Add(1)
		go func(i int, due, sent time.Time) {
			defer wg.Done()
			nb, err := srv.KNN(q, k)
			end := time.Now()
			parent := rec.add("loadgen:request", due, end, -1, id)
			rec.add("Server.KNN", sent, end, parent, id)
			switch {
			case errors.Is(err, serve.ErrOverloaded):
				t.refuse()
			case err != nil:
				t.fail()
			case len(nb) != k || !sort.SliceIsSorted(nb, func(a, b int) bool { return nb[a].Dist < nb[b].Dist }):
				t.mismatch()
			default:
				lat[i] = us(end.Sub(due))
				ok[i] = true
			}
		}(i, due, sent)
	}
	wg.Wait()

	for i := range lat {
		if ok[i] {
			st.read = append(st.read, lat[i])
		}
	}
	st.write = append(st.write, wlat...)
	for id, p := range ins {
		st.inserted[id] = p
	}
	st.deleted = append(st.deleted, del...)
	st.reads += n
	st.writes += segmentWrites
}

// replay applies the writes the server acknowledged to a reference index,
// Inserts in row-id order (the order the sequencer assigned), and checks
// each lands on the same id and each Delete finds its row.
func (st openStats) replay(ref *mmdr.Index, firstID int, t *tally) error {
	ids := make([]int, 0, len(st.inserted))
	for id := range st.inserted {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		t.attempt()
		got, err := ref.Insert(st.inserted[id])
		if err != nil {
			return err
		}
		if id != firstID+i || got != id {
			t.mismatch()
		}
	}
	for _, id := range st.deleted {
		t.attempt()
		found, err := ref.Delete(id)
		if err != nil {
			return err
		}
		if !found {
			t.mismatch()
		}
	}
	return nil
}
