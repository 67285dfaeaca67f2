package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mmdr"
)

// span is one recorded call into a layer: its name, start and end (ns
// since the recorder's epoch), the span that caused it (-1 for none) and
// the request it belongs to (-1 for set-up work).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// recorder keeps spans in memory for the traced pass; write saves them when
// the run ends. A nil *recorder records nothing, which is the untraced
// pass: the recording methods are no-ops on nil.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// phases holds the intervals WithProgress reported, per pipeline phase.
	phases map[mmdr.Phase][][2]int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16), phases: map[mmdr.Phase][][2]int64{}}
}

// add records a finished span and returns its id.
func (r *recorder) add(name string, start, end time.Time, parent int32, req int64) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.epoch).Nanoseconds(),
		End: end.Sub(r.epoch).Nanoseconds(), Parent: parent, Req: req})
	r.mu.Unlock()
	return id
}

// open starts a span that close ends, so the spans recorded in between can
// name it as their parent.
func (r *recorder) open(name string, parent int32) int32 {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Req: -1})
	return int32(len(r.spans) - 1)
}

// close ends a span from open.
func (r *recorder) close(id int32) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// timed runs fn as a set-up span and returns its duration.
func (r *recorder) timed(name string, parent int32, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	r.add(name, t0, t1, parent, -1)
	return t1.Sub(t0), err
}

// progress returns a WithProgress option feeding phase intervals into the
// recorder, or nil when untraced.
func (r *recorder) progress() mmdr.Option {
	if r == nil {
		return nil
	}
	return mmdr.WithProgress(func(p mmdr.Phase, elapsed time.Duration) {
		end := time.Since(r.epoch).Nanoseconds()
		r.mu.Lock()
		r.phases[p] = append(r.phases[p], [2]int64{end - elapsed.Nanoseconds(), end})
		r.mu.Unlock()
	})
}

// busy returns the wall time, in seconds, during which at least one span of
// phase p was open: the union of its intervals, so nested recursion levels
// and concurrent restarts are not counted twice.
func (r *recorder) busy(p mmdr.Phase) float64 {
	r.mu.Lock()
	iv := append([][2]int64(nil), r.phases[p]...)
	r.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	curE = -1 << 62
	for _, x := range iv {
		if x[0] > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return float64(total) / 1e9
}

// durations returns the durations in µs of every span named name.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write saves the spans as JSON lines under dir.
func (r *recorder) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}
