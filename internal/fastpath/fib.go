package fastpath

import (
	"sync/atomic"

	"repro/internal/switchsim"
)

// FIB publishes the compiled snapshot of one switch behind an atomic
// pointer. Readers acquire the current snapshot with one atomic load plus
// one atomic generation check; a stale snapshot (the switch mutated since
// it was compiled) is never served — Acquire recompiles and swaps it with
// a compare-and-swap, so concurrent acquirers converge on the newest
// generation without any lock.
type FIB struct {
	sw   *switchsim.Switch
	snap atomic.Pointer[Snapshot]
	o    *fpObs
}

// NewFIB wraps a switch. The first Acquire compiles the initial snapshot.
func NewFIB(sw *switchsim.Switch) *FIB {
	return &FIB{sw: sw}
}

// Switch returns the wrapped switch.
func (f *FIB) Switch() *switchsim.Switch { return f.sw }

// instrument attaches telemetry; see Net.Instrument.
func (f *FIB) instrument(o *fpObs) { f.o = o }

// Acquire returns a snapshot that is current as of the call: its
// generation equals the switch's at the moment of the check. Steady state
// is two atomic loads; after a table mutation the first acquirer pays one
// compile and publishes for everyone.
//
// hotpath: no alloc, no lock
func (f *FIB) Acquire() *Snapshot {
	cur := f.snap.Load()
	gen := f.sw.Generation()
	if cur != nil && cur.Gen == gen {
		return cur
	}
	if cur != nil {
		f.o.stale()
	}
	ns := Compile(f.sw)
	f.o.compiled()
	for {
		cur = f.snap.Load()
		if cur != nil && cur.Gen >= ns.Gen {
			// Someone published the same or a newer generation first.
			return cur
		}
		if f.snap.CompareAndSwap(cur, ns) {
			return ns
		}
	}
}
