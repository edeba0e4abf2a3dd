package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/topo"
)

// metric is one value on the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is one value on the report line: the measured value, its unit
// and how many samples it rests on. A percentile that fails the minBeyond
// rule has a nil Value.
type detail struct {
	Value   *float64 `json:"value"`
	Unit    string   `json:"unit"`
	Samples int      `json:"samples"`
}

// sheet collects every metric a run measures, by name.
type sheet struct {
	vals map[string]detail
}

func newSheet() *sheet { return &sheet{vals: make(map[string]detail)} }

// set records a plain value; NaN and infinities are stored as missing.
func (s *sheet) set(name string, v float64, unit string, n int) {
	d := detail{Unit: unit, Samples: n}
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		d.Value = &v
	}
	s.vals[name] = d
}

// ratio records num/den, or a missing value when den is 0.
func (s *sheet) ratio(name string, num, den float64, unit string, n int) {
	if den == 0 {
		s.set(name, math.NaN(), unit, n)
		return
	}
	s.set(name, num/den, unit, n)
}

// lat records <prefix>_p50_us, _p90_us and _p99_us over durations in ns.
// A percentile is left missing unless minBeyond samples lie beyond it.
func (s *sheet) lat(prefix string, v samples) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"_p50_us", 0.50}, {"_p90_us", 0.90}, {"_p99_us", 0.99}} {
		x, ok := v.quantileNS(q.q)
		if !ok {
			s.set(prefix+q.name, math.NaN(), "us", len(v))
			continue
		}
		s.set(prefix+q.name, float64(x)/1e3, "us", len(v))
	}
}

// slicedLat is lat with the median taken over slices: v[i] fell in slice
// at[i], and <prefix>_p50_us is the median over slices of each slice's
// median. On a shared host, contention comes in episodes of seconds that
// delay every operation due in them; an episode covering less than half
// the slices barely moves this median, while it moves the median of the
// pooled samples by as much as it delays them.
func (s *sheet) slicedLat(prefix string, v samples, at []int32) {
	s.lat(prefix, v)
	if m, ok := sliceMedian(v, at); ok {
		s.set(prefix+"_p50_us", float64(m)/1e3, "us", len(v))
	}
}

// value returns a recorded value (0 when missing) and whether it exists.
func (s *sheet) value(name string) (float64, bool) {
	d, ok := s.vals[name]
	if !ok || d.Value == nil {
		return 0, false
	}
	return *d.Value, true
}

// checker collects correctness failures. Any failure fails the run.
type checker struct {
	mu    sync.Mutex
	fails []string
	count int
}

// failf records one failed check; only the first few messages are kept.
func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
	if len(c.fails) < 8 {
		c.fails = append(c.fails, fmt.Sprintf(format, args...))
	}
}

func (c *checker) failed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

func (c *checker) messages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.fails...)
}

// outcome is what a workload hands back to main.
type outcome struct {
	sheet     *sheet
	attempted int64
	failed    int64 // operations that errored or returned a wrong answer
	checks    *checker
	digest    string
	inputs    map[string]any // generated-input summary for the report line
	backlog   bool           // open-loop backlog grew over the run
}

// inputDigest hashes the generated inputs of a run so a change to the
// generators shows as changed inputs rather than as a speed-up.
type inputDigest struct{ h hash.Hash }

func newDigest() *inputDigest { return &inputDigest{h: sha256.New()} }

func (d *inputDigest) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *inputDigest) str(s string) { io.WriteString(d.h, s); d.ints(int64(len(s))) }

// topology folds a topology's switches, links, stations and middleboxes.
func (d *inputDigest) topology(t *topo.Topology) {
	for _, n := range t.Nodes {
		d.ints(int64(n.ID), int64(n.Kind), int64(len(n.Neighbors)))
		d.str(n.Name)
		for _, nb := range n.Neighbors {
			d.ints(int64(nb))
		}
	}
	for _, st := range t.Stations {
		d.ints(int64(st.ID), int64(st.Access))
	}
	for _, mb := range t.MBoxes {
		d.ints(int64(mb.ID), int64(mb.Type), int64(mb.Attached))
	}
}

func (d *inputDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// gcStats is a runtime.MemStats delta over a measured interval.
type gcStats struct {
	mallocs uint64
	cycles  uint32
	pauseNS uint64
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{mallocs: m.Mallocs, cycles: m.NumGC, pauseNS: m.PauseTotalNs}
}

// recordGC writes the go.* per-layer metrics for the interval from start
// to end.
func (s *sheet) recordGC(start, end gcStats, ops int64) {
	s.ratio("go.allocs_per_op", float64(end.mallocs-start.mallocs), float64(ops), "count", int(ops))
	s.set("go.gc_cycles", float64(end.cycles-start.cycles), "count", 1)
	s.set("go.gc_pause_ms", float64(end.pauseNS-start.pauseNS)/1e6, "ms", int(end.cycles-start.cycles))
}

// liveHeap returns the GC-settled live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// timeBuild runs build n times, each on a collected heap, and keeps the
// last result: it returns that result, the median wall time of the builds
// in seconds, and the live heap the last build added in bytes. The earlier
// results are handed to drop.
func timeBuild[T any](n int, build func() (T, error), drop func(T)) (T, float64, float64, error) {
	var v T
	var heap float64
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(v)
		}
		base := liveHeap()
		t0 := time.Now()
		var err error
		if v, err = build(); err != nil {
			return v, 0, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		heap = float64(liveHeap()) - float64(base)
	}
	return v, medianF(secs), heap, nil
}

// resultLine renders the last line of standard output.
func resultLine(correct bool, attempted, failed int64, metrics map[string]metric) string {
	type line struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	b, err := json.Marshal(line{correct, attempted, failed, metrics})
	if err != nil {
		panic(err) // only maps of finite floats and strings
	}
	return string(b)
}

// sumMatching adds every counter whose name is name or ends in "."+name,
// so per-shard sub-registries ("shard.0.core.rules.added") fold together.
func sumMatching(counters map[string]uint64, name string) uint64 {
	var n uint64
	for k, v := range counters {
		if k == name || strings.HasSuffix(k, "."+name) {
			n += v
		}
	}
	return n
}
