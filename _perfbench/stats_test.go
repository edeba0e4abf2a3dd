package main

import (
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		n    int
		want bool
	}{
		{0.99, 999, false}, // nearest rank 989 leaves 9 samples beyond
		{0.99, 1000, true},
		{0.99, 100, false},
		{0.50, 19, false},
		{0.50, 20, true},
		{0.90, 110, true},
		{0.90, 99, false},
		{0.50, 0, false},
	} {
		if got := validQuantile(tc.q, tc.n); got != tc.want {
			t.Errorf("validQuantile(%v, %d) = %v, want %v", tc.q, tc.n, got, tc.want)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	var v samples
	for i := 1000; i >= 1; i-- {
		v = append(v, int64(i))
	}
	if got, ok := v.quantileNS(0.99); got != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %d (%v), want 990 valid", got, ok)
	}
	if got, ok := v.quantileNS(0.5); got != 500 || !ok {
		t.Errorf("p50 of 1..1000 = %d (%v), want 500", got, ok)
	}
	if _, ok := v[:500].quantileNS(0.99); ok {
		t.Error("p99 of 500 samples reported as valid")
	}
}

func TestSheetLeavesUndersampledPercentileMissing(t *testing.T) {
	sh := newSheet()
	v := make(samples, 200)
	for i := range v {
		v[i] = int64(i+1) * 1000
	}
	sh.lat("x", v)
	if _, ok := sh.value("x_p99_us"); ok {
		t.Error("p99 of 200 samples was recorded")
	}
	if got, ok := sh.value("x_p50_us"); !ok || got != 100 {
		t.Errorf("p50 = %v (%v), want 100 us", got, ok)
	}
	if d := sh.vals["x_p99_us"]; d.Samples != 200 || d.Unit != "us" {
		t.Errorf("p99 detail = %+v, want 200 samples in us", d)
	}
}

func TestSliceMedianIgnoresAContendedEpisode(t *testing.T) {
	// Ten slices of operations spread over 100-200 µs; in four of them
	// every operation also waits 5 ms. The pooled median moves up the
	// uncontended distribution to its 83rd percentile; the slice median
	// stays at its middle.
	var v samples
	var at []int32
	for sl := int32(0); sl < 10; sl++ {
		for i := int64(0); i <= 100; i++ {
			x := 100_000 + 1000*i
			if sl < 4 {
				x += 5_000_000
			}
			v, at = append(v, x), append(at, sl)
		}
	}
	m, ok := sliceMedian(v, at)
	if !ok || m != 150_000 {
		t.Errorf("slice median = %d, %v; want 150000", m, ok)
	}
	if p, _ := append(samples(nil), v...).quantileNS(0.5); p < 180_000 {
		t.Errorf("pooled median = %d, want above 180000", p)
	}
	if _, ok := sliceMedian(nil, nil); ok {
		t.Error("slice median of no samples reported")
	}
}

func TestHistQuantileReportsBucketBound(t *testing.T) {
	bounds := []int64{10, 100, 1000}
	counts := []uint64{90, 9, 1, 0}
	if v, n := histQuantile(bounds, counts, 0.5); v != 10 || n != 100 {
		t.Errorf("p50 = %d over %d, want 10 over 100", v, n)
	}
	if v, _ := histQuantile(bounds, counts, 0.99); v != 100 {
		t.Errorf("p99 = %d, want 100", v)
	}
	if v, _ := histQuantile(bounds, []uint64{0, 0, 0, 5}, 0.5); v != 1000 {
		t.Errorf("overflow p50 = %d, want the largest bound", v)
	}
}

func TestScheduleDueTimes(t *testing.T) {
	start := time.Unix(100, 0)
	s := newSchedule(start, 4000) // one operation every 250 us
	for _, tc := range []struct {
		i    int64
		want time.Duration
	}{{0, 0}, {1, 250 * time.Microsecond}, {4000, time.Second}} {
		if got := s.due(tc.i).Sub(start); got != tc.want {
			t.Errorf("due(%d) = +%v, want +%v", tc.i, got, tc.want)
		}
	}
	if got := s.index(start.Add(-time.Second)); got != 0 {
		t.Errorf("index before start = %d, want 0", got)
	}
	if got := s.index(start.Add(time.Second)); got != 4001 {
		t.Errorf("index at +1s = %d, want 4001 (operations 0..4000 due)", got)
	}
}

func TestWaitForTimesFromDueNotFromSend(t *testing.T) {
	// A generator that falls 20 ms behind sends the overdue operations at
	// once; each keeps its own due time and reports how late it was.
	s := newSchedule(time.Now().Add(-20*time.Millisecond), 1000)
	due, lag := s.waitFor(0)
	if !due.Equal(s.start) {
		t.Errorf("due = %v, want the schedule start", due)
	}
	if lag < 20*time.Millisecond {
		t.Errorf("lag = %v, want at least 20ms", lag)
	}
	// An operation in the future is waited for, and sent on time.
	s = newSchedule(time.Now(), 100)
	due, lag = s.waitFor(2)
	if time.Now().Before(due) {
		t.Error("waitFor returned before the due time")
	}
	if lag > 5*time.Millisecond {
		t.Errorf("lag after waiting = %v, want a few microseconds", lag)
	}
}

func TestBacklogGrowth(t *testing.T) {
	var steady, growing backlog
	for i := int64(0); i < 40; i++ {
		steady.sample(100*i+5, 100*i)
		growing.sample(100*i+5*i, 100*i)
	}
	if steady.grew(10) {
		t.Error("steady backlog flagged as growing")
	}
	if !growing.grew(10) {
		t.Error("growing backlog not flagged")
	}
}
