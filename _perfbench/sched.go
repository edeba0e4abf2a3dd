package main

import (
	"runtime"
	"syscall"
	"time"
)

// sleepUntil returns at t or a few microseconds after. The runtime's own
// timers wake sleepers on a millisecond grid on Linux, which would batch a
// sub-millisecond schedule, so the generator sleeps in nanosleep instead,
// on a thread whose timer slack lockPrecise has lowered.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep loops and sleeps the remainder.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// prSetTimerSlack is Linux's PR_SET_TIMERSLACK prctl option.
const prSetTimerSlack = 29

// lockPrecise pins the calling goroutine to its thread and lowers the
// thread's timer slack from the kernel's default 50 µs to 1 ns, so
// sleepUntil overshoots by microseconds. Call the returned function to
// unpin.
func lockPrecise() (unlock func()) {
	runtime.LockOSThread()
	// Without the lower slack the schedule only gets coarser; nothing to
	// report if the call is refused.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return runtime.UnlockOSThread
}

// schedule is an open-loop timetable: operation i is due at
// start + i/rate, whatever happened to the operations before it, so a
// stall shows up as latency on every operation that was due during it.
type schedule struct {
	start  time.Time
	period float64 // ns between consecutive due times
}

func newSchedule(start time.Time, ratePerSec float64) schedule {
	return schedule{start: start, period: 1e9 / ratePerSec}
}

// due is the time operation i is due.
func (s schedule) due(i int64) time.Time {
	return s.start.Add(time.Duration(float64(i) * s.period))
}

// index is the number of operations due by t.
func (s schedule) index(t time.Time) int64 {
	d := t.Sub(s.start)
	if d < 0 {
		return 0
	}
	return int64(float64(d)/s.period) + 1
}

// waitFor sleeps until operation i is due and returns its due time and
// how late the caller is to send it (zero when on time).
func (s schedule) waitFor(i int64) (due time.Time, lag time.Duration) {
	due = s.due(i)
	sleepUntil(due)
	if lag = time.Since(due); lag < 0 {
		lag = 0
	}
	return due, lag
}

// backlog tracks, at regular instants, how many due operations have not
// completed; growth from the first quarter of a run to the last means the
// offered rate exceeded what the system sustained.
type backlog struct {
	points []int64
}

func (b *backlog) sample(due, completed int64) {
	b.points = append(b.points, due-completed)
}

// grew reports whether the mean backlog over the last quarter of the
// samples exceeds twice the first quarter's mean by more than slack.
func (b *backlog) grew(slack int64) bool {
	n := len(b.points) / 4
	if n == 0 {
		return false
	}
	var first, last int64
	for i := 0; i < n; i++ {
		first += b.points[i]
		last += b.points[len(b.points)-1-i]
	}
	return last/int64(n) > 2*(first/int64(n))+slack
}
