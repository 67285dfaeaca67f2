package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p99 needs at least 1000 samples, a p50 at least 20.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule, and an error when fewer than minTail samples lie
// beyond it, so an under-sampled tail is refused rather than reported.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; n == 0 || beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, max(n-rank, 0), minTail)
	}
	return sorted[rank-1], nil
}

// dist is a latency distribution in microseconds: p50, p99 and the number
// of samples they were read from.
type dist struct {
	P50, P99 float64
	N        int
}

// maxWindows caps how many windows windowedP99 splits a run into.
const maxWindows = 16

// summarize reads p50 and p99 of samples, given in the order they were
// taken, under the percentile rule. The p50 is over all samples; the p99
// is windowedP99. samples is not modified.
func summarize(name string, samples []float64) (dist, error) {
	p99, err := windowedP99(samples)
	if err != nil {
		return dist{}, fmt.Errorf("%s: %w", name, err)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	p50, err := percentile(sorted, 50)
	if err != nil {
		return dist{}, fmt.Errorf("%s: %w", name, err)
	}
	return dist{P50: p50, P99: p99, N: len(samples)}, nil
}

// windowedP99 splits samples, in the order they were taken, into as many
// consecutive equal windows as hold 1000 samples each (at most maxWindows)
// and returns the median of the windows' p99s. Each window's p99 has at
// least 10 samples beyond it, and a burst on the shared host decides the
// tail of the window it hits rather than of the whole run.
func windowedP99(samples []float64) (float64, error) {
	w := min(len(samples)/(100*minTail), maxWindows)
	if w == 0 {
		_, err := percentile(samples, 99) // reports the shortfall
		return 0, err
	}
	size := len(samples) / w
	p99s := make([]float64, w)
	for i := range p99s {
		win := append([]float64(nil), samples[i*size:(i+1)*size]...)
		sort.Float64s(win)
		v, err := percentile(win, 99)
		if err != nil {
			return 0, err
		}
		p99s[i] = v
	}
	return median(p99s), nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// tally accounts every attempted operation, including answer checks, by
// outcome. Refused (HTTP 429 / ErrOverloaded), errored and wrong answers
// all count as failed. Safe for concurrent use.
type tally struct {
	attempted, refused, errored, wrong atomic.Int64
}

func (t *tally) attempt()  { t.attempted.Add(1) }
func (t *tally) refuse()   { t.refused.Add(1) }
func (t *tally) fail()     { t.errored.Add(1) }
func (t *tally) mismatch() { t.wrong.Add(1) }
func (t *tally) failed() int64 {
	return t.refused.Load() + t.errored.Load() + t.wrong.Load()
}

// failFrac is failed over attempted (0 with nothing attempted).
func (t *tally) failFrac() float64 {
	a := t.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(t.failed()) / float64(a)
}

// poissonSchedule returns n arrival offsets of a Poisson process with the
// given rate (per second): exponential inter-arrival gaps drawn from seed,
// so the same seed always yields the same schedule.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	var t float64 // seconds
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * 1e9)
	}
	return out
}
