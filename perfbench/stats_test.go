package main

import (
	"errors"
	"net/http"
	"reflect"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// 1000 samples: p99 is the 990th, with exactly 10 beyond it.
	v, err := percentile(seq(1000), 99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1000 = %v, %v; want 990", v, err)
	}
	// 999 samples leave only 9 beyond the p99.
	if _, err := percentile(seq(999), 99); err == nil {
		t.Fatal("p99 of 999 samples accepted with 9 beyond it")
	}
	// p50 needs 20 samples.
	if v, err := percentile(seq(20), 50); err != nil || v != 10 {
		t.Fatalf("p50 of 20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(seq(19), 50); err == nil {
		t.Fatal("p50 of 19 samples accepted with 9 beyond it")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("p50 of no samples accepted")
	}
}

func TestSummarizeReportsCount(t *testing.T) {
	s := seq(2000)
	// Reverse so summarize has to sort.
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
	d, err := summarize("x", s)
	if err != nil {
		t.Fatal(err)
	}
	// Two windows of 1000 (2000..1001 and 1000..1): p99s 1990 and 990.
	if d.N != 2000 || d.P50 != 1000 || d.P99 != 1490 {
		t.Fatalf("summarize = %+v, want N=2000 P50=1000 P99=1491", d)
	}
	if s[0] != 2000 {
		t.Fatal("summarize reordered its input")
	}
	if _, err := summarize("x", seq(500)); err == nil {
		t.Fatal("p99 of 500 samples accepted")
	}
}

func TestWindowedP99IgnoresOneBurst(t *testing.T) {
	// 4000 samples of 1..1000 repeated; one window also holds a burst of
	// 50 slow samples. The median window p99 stays at the calm value.
	var s []float64
	for w := 0; w < 4; w++ {
		s = append(s, seq(1000)...)
	}
	for i := 0; i < 50; i++ {
		s[1500+i] = 1e6
	}
	v, err := windowedP99(s)
	if err != nil {
		t.Fatal(err)
	}
	if v != 990 {
		t.Fatalf("windowed p99 = %v, want 990", v)
	}
	if _, err := windowedP99(seq(999)); err == nil {
		t.Fatal("windowed p99 of 999 samples accepted")
	}
}

func TestFailFracCountsRefusedErroredAndWrong(t *testing.T) {
	var tl tally
	for i := 0; i < 100; i++ {
		tl.attempt()
	}
	// A 429 is refused, a transport error or non-200 is errored, a 200
	// with a wrong answer is a mismatch; all three fail.
	if account(&tl, http.StatusTooManyRequests, nil) {
		t.Fatal("429 accepted as an answer")
	}
	if account(&tl, 0, errors.New("connection reset")) {
		t.Fatal("transport error accepted as an answer")
	}
	if account(&tl, http.StatusBadRequest, nil) {
		t.Fatal("400 accepted as an answer")
	}
	if !account(&tl, http.StatusOK, nil) {
		t.Fatal("200 rejected")
	}
	tl.mismatch()
	if got := tl.failed(); got != 4 {
		t.Fatalf("failed = %d, want 4", got)
	}
	if got := tl.failFrac(); got != 0.04 {
		t.Fatalf("fail_frac = %v, want 0.04", got)
	}
	rep := newReport(nil, &tl)
	if rep.Correct || rep.Attempted != 100 || rep.Failed != 4 {
		t.Fatalf("report = %+v, want incorrect with 4 of 100 failed", rep)
	}
	var refusedOnly tally
	refusedOnly.attempt()
	refusedOnly.refuse()
	if rep := newReport(nil, &refusedOnly); !rep.Correct || rep.Failed != 1 {
		t.Fatalf("refusal-only report = %+v, want correct with 1 failed", rep)
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(7, 1000, 5000)
	b := poissonSchedule(7, 1000, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 1000, 5000)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
	}
	// 5000 arrivals at 1000/s span about 5 s.
	if s := a[len(a)-1].Seconds(); s < 4.5 || s > 5.5 {
		t.Fatalf("5000 arrivals at 1000/s span %.2fs", s)
	}
}

func TestBusyUnionsNestedIntervals(t *testing.T) {
	r := newRecorder()
	// Nested [0,10] ⊃ [2,5] and a disjoint [20,25]: 15 ns busy.
	r.phases["p"] = [][2]int64{{2, 5}, {0, 10}, {20, 25}}
	if got := r.busy("p"); got != 15e-9 {
		t.Fatalf("busy = %v, want 15ns", got)
	}
}
