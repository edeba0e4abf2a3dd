package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/topo"
)

func pfx(a packet.Addr, l int) packet.Prefix { return packet.NewPrefix(a, l) }

func TestTrieInsertLookup(t *testing.T) {
	tr := newPrefixTrie()
	p1 := pfx(packet.AddrFrom4(10, 0, 0, 0), 16)
	p2 := pfx(packet.AddrFrom4(10, 1, 0, 0), 16)
	tr.Insert(p1, ToNode(1))
	tr.Insert(p2, ToNode(2))
	if nh, ok := tr.Lookup(p1); !ok || nh.Node != 1 {
		t.Fatalf("lookup p1 = %v %v", nh, ok)
	}
	if nh, ok := tr.Lookup(p2); !ok || nh.Node != 2 {
		t.Fatalf("lookup p2 = %v %v", nh, ok)
	}
	if _, ok := tr.Lookup(pfx(packet.AddrFrom4(10, 2, 0, 0), 16)); ok {
		t.Fatal("uninstalled prefix should miss")
	}
	if tr.Count() != 2 {
		t.Fatalf("count = %d", tr.Count())
	}
}

func TestTrieLongestPrefixWins(t *testing.T) {
	tr := newPrefixTrie()
	tr.Insert(pfx(packet.AddrFrom4(10, 0, 0, 0), 8), ToNode(1))
	tr.Insert(pfx(packet.AddrFrom4(10, 5, 0, 0), 16), ToNode(2))
	if nh, _ := tr.Lookup(pfx(packet.AddrFrom4(10, 5, 0, 0), 20)); nh.Node != 2 {
		t.Fatalf("longest prefix should win, got %v", nh)
	}
	if nh, _ := tr.Lookup(pfx(packet.AddrFrom4(10, 6, 0, 0), 20)); nh.Node != 1 {
		t.Fatalf("fallback to /8, got %v", nh)
	}
}

func TestTrieSiblingAggregation(t *testing.T) {
	tr := newPrefixTrie()
	// 10.0.0.0/17 and 10.0.128.0/17 with the same next hop merge to /16.
	a := pfx(packet.AddrFrom4(10, 0, 0, 0), 17)
	b := pfx(packet.AddrFrom4(10, 0, 128, 0), 17)
	tr.Insert(a, ToNode(7))
	if tr.Count() != 1 {
		t.Fatalf("count = %d", tr.Count())
	}
	if !tr.CanAggregate(b, ToNode(7)) {
		t.Fatal("sibling with same next hop should aggregate")
	}
	if tr.CanAggregate(b, ToNode(8)) {
		t.Fatal("different next hop should not aggregate")
	}
	tr.Insert(b, ToNode(7))
	if tr.Count() != 1 {
		t.Fatalf("after merge count = %d, want 1", tr.Count())
	}
	if nh, ok := tr.Exact(pfx(packet.AddrFrom4(10, 0, 0, 0), 16)); !ok || nh.Node != 7 {
		t.Fatalf("merged /16 missing: %v %v", nh, ok)
	}
	// Both halves still resolve.
	for _, q := range []packet.Prefix{a, b} {
		if nh, ok := tr.Lookup(q); !ok || nh.Node != 7 {
			t.Fatalf("lookup %v after merge = %v %v", q, nh, ok)
		}
	}
}

func TestTrieCascadingMerge(t *testing.T) {
	tr := newPrefixTrie()
	// Four consecutive /18s with the same next hop collapse to one /16.
	base := packet.AddrFrom4(10, 0, 0, 0)
	for i := 0; i < 4; i++ {
		tr.Insert(pfx(base|packet.Addr(i)<<14, 18), ToNode(3))
	}
	if tr.Count() != 1 {
		t.Fatalf("count = %d, want 1", tr.Count())
	}
}

// Property: aggregation never changes the forwarding function (DESIGN.md §6).
func TestTrieAggregationPreservesLookup(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		agg := newPrefixTrie()
		var flat []struct {
			p  packet.Prefix
			nh NextHop
		}
		// Insert random /20s out of a small pool so siblings collide often.
		for i := 0; i < 60; i++ {
			p := pfx(packet.Addr(rng.Intn(64))<<12, 20)
			nh := ToNode(topo.NodeID(rng.Intn(3)))
			agg.Insert(p, nh)
			flat = append(flat, struct {
				p  packet.Prefix
				nh NextHop
			}{p, nh})
		}
		// Reference: last writer wins per exact prefix, longest match.
		lookupFlat := func(q packet.Prefix) (NextHop, bool) {
			best := -1
			var bestNH NextHop
			for _, e := range flat {
				if e.p.ContainsPrefix(q) && e.p.Len >= best {
					best = e.p.Len
					bestNH = e.nh
				}
			}
			return bestNH, best >= 0
		}
		for q := 0; q < 64; q++ {
			qp := pfx(packet.Addr(q)<<12, 20)
			got, gok := agg.Lookup(qp)
			want, wok := lookupFlat(qp)
			if gok != wok || (gok && got != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTrieWalk(t *testing.T) {
	tr := newPrefixTrie()
	tr.Insert(pfx(packet.AddrFrom4(10, 0, 0, 0), 16), ToNode(1))
	tr.Insert(pfx(packet.AddrFrom4(192, 168, 0, 0), 24), ToNode(2))
	got := map[string]topo.NodeID{}
	tr.Walk(func(p packet.Prefix, nh NextHop) { got[p.String()] = nh.Node })
	if len(got) != 2 || got["10.0.0.0/16"] != 1 || got["192.168.0.0/24"] != 2 {
		t.Fatalf("walk = %v", got)
	}
}

// allEntries lists a trie's live entries by visiting every node.
func allEntries(tr *prefixTrie) []packet.Prefix {
	var out []packet.Prefix
	var rec func(n *trieNode, addr packet.Addr, depth int)
	rec = func(n *trieNode, addr packet.Addr, depth int) {
		if n == nil {
			return
		}
		if n.set {
			out = append(out, packet.Prefix{Addr: addr, Len: depth})
		}
		if depth < 32 {
			rec(n.child[0], addr, depth+1)
			rec(n.child[1], addr|packet.Addr(1)<<(31-depth), depth+1)
		}
	}
	rec(tr.root, 0, 0)
	return out
}

// TestQuickTrieWalkVisitsEveryEntry holds Walk, which stops once Count
// entries are visited, to a full node-by-node traversal over random
// inserts (with and without aggregation) and removals: same entries,
// same order.
func TestQuickTrieWalkVisitsEveryEntry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := newPrefixTrie()
		var added []packet.Prefix
		for i := 0; i < 40; i++ {
			p := pfx(packet.AddrFrom4(10, byte(r.Intn(4)), byte(r.Intn(256)), byte(r.Intn(256))), 8+r.Intn(25))
			switch r.Intn(3) {
			case 0:
				tr.Insert(p, ToNode(topo.NodeID(r.Intn(3))))
			case 1:
				insertNoAgg(tr, p, ToNode(topo.NodeID(r.Intn(3))))
			case 2:
				if len(added) > 0 {
					tr.Remove(added[r.Intn(len(added))])
				}
				continue
			}
			added = append(added, p)
		}
		var got []packet.Prefix
		tr.Walk(func(p packet.Prefix, _ NextHop) { got = append(got, p) })
		want := allEntries(tr)
		if len(got) != len(want) || len(got) != tr.Count() {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFIBVersionBumps checks that every mutator moves the FIB's version,
// the data plane's signal to re-materialise the switch.
func TestFIBVersionBumps(t *testing.T) {
	f := NewFIB(0)
	loc := packet.AddrFrom4(10, 0, 0, 9)
	p := pfx(packet.AddrFrom4(10, 0, 0, 0), 24)
	for name, mut := range map[string]func(){
		"InsertLocation":       func() { f.InsertLocation(Down, p, ToNode(1)) },
		"InsertMBLocation":     func() { f.InsertMBLocation(Down, 3, p, ToNode(1)) },
		"InsertPortPrefix":     func() { f.InsertPortPrefix(Down, 2, 7, p, ToNode(1)) },
		"SetDefault":           func() { f.SetDefault(Up, 7, ToNode(1)) },
		"InsertPrefix":         func() { f.InsertPrefix(Up, 7, p, ToNode(2)) },
		"SetMBDefault":         func() { f.SetMBDefault(Up, 3, 7, ToNode(1)) },
		"InsertMBPrefix":       func() { f.InsertMBPrefix(Up, 3, 7, p, ToNode(1)) },
		"InsertMobility":       func() { f.InsertMobility(Down, 7, loc, ToNode(1)) },
		"RemoveMobility":       func() { f.RemoveMobility(Down, 7, loc) },
		"insertMobilityNoAgg":  func() { f.insertMobilityNoAgg(Down, 7, loc, ToNode(1)) },
		"insertMobilityFromMB": func() { f.insertMobilityFromMB(Down, 3, 7, loc, ToNode(1)) },
		"removeMobilityFromMB": func() { f.removeMobilityFromMB(Down, 3, 7, loc) },
	} {
		before := f.Stamp()
		mut()
		if f.Stamp() == before || f.ver <= before.ver {
			t.Errorf("%s did not bump the FIB version", name)
		}
	}
	if NewFIB(0).Stamp() == f.Stamp() || (FIBStamp{}) == NewFIB(0).Stamp() {
		t.Error("a fresh FIB's stamp must differ from another FIB's and from the zero stamp")
	}
}

func TestFIBDefaultsAndOverrides(t *testing.T) {
	f := NewFIB(0)
	p1 := pfx(packet.AddrFrom4(10, 0, 16, 0), 20)
	p2 := pfx(packet.AddrFrom4(10, 0, 32, 0), 20)
	if _, ok := f.GetNextHop(Down, 5, p1); ok {
		t.Fatal("empty FIB should miss")
	}
	if d := f.SetDefault(Down, 5, ToNode(1)); d != 1 {
		t.Fatalf("default delta = %d", d)
	}
	if d := f.SetDefault(Down, 5, ToNode(1)); d != 0 {
		t.Fatalf("re-set default delta = %d", d)
	}
	if nh, ok := f.GetNextHop(Down, 5, p1); !ok || nh.Node != 1 {
		t.Fatalf("default lookup = %v %v", nh, ok)
	}
	f.InsertPrefix(Down, 5, p2, ToNode(2))
	if nh, _ := f.GetNextHop(Down, 5, p2); nh.Node != 2 {
		t.Fatal("prefix override should win")
	}
	if nh, _ := f.GetNextHop(Down, 5, p1); nh.Node != 1 {
		t.Fatal("other prefixes keep the default")
	}
	// Direction and tag isolation.
	if _, ok := f.GetNextHop(Up, 5, p1); ok {
		t.Fatal("directions must be isolated")
	}
	if _, ok := f.GetNextHop(Down, 6, p1); ok {
		t.Fatal("tags must be isolated")
	}
	if f.NumRules() != 2 {
		t.Fatalf("NumRules = %d", f.NumRules())
	}
}

func TestFIBMBContextFallback(t *testing.T) {
	f := NewFIB(0)
	p := pfx(packet.AddrFrom4(10, 0, 16, 0), 20)
	f.SetDefault(Down, 3, ToMB(9))
	// Without an in-port rule, traffic returning from mb 9 falls through to
	// the main rule — which sends it back into the box.
	if nh, ok := f.GetNextHopFromMB(Down, 9, 3, p); !ok || nh.MB != 9 {
		t.Fatalf("fallback = %v %v", nh, ok)
	}
	f.SetMBDefault(Down, 9, 3, ToNode(4))
	if nh, _ := f.GetNextHopFromMB(Down, 9, 3, p); nh.Node != 4 {
		t.Fatal("in-port rule should win")
	}
	// Main context unaffected.
	if nh, _ := f.GetNextHop(Down, 3, p); nh.MB != 9 {
		t.Fatal("main context changed")
	}
	f.InsertMBPrefix(Down, 9, 3, p, ToNode(5))
	if nh, _ := f.GetNextHopFromMB(Down, 9, 3, p); nh.Node != 5 {
		t.Fatal("in-port prefix rule should win over in-port default")
	}
	if f.NumRules() != 3 {
		t.Fatalf("NumRules = %d", f.NumRules())
	}
}

func TestFIBMobility(t *testing.T) {
	f := NewFIB(0)
	loc := packet.AddrFrom4(10, 0, 16, 10)
	if _, ok := f.LookupMobility(Down, 3, loc); ok {
		t.Fatal("no mobility rule yet")
	}
	f.InsertMobility(Down, 3, loc, ToNode(8))
	if nh, ok := f.LookupMobility(Down, 3, loc); !ok || nh.Node != 8 {
		t.Fatalf("mobility lookup = %v %v", nh, ok)
	}
	if _, ok := f.LookupMobility(Down, 3, loc+1); ok {
		t.Fatal("mobility rules are exact /32")
	}
	if _, ok := f.LookupMobility(Down, 4, loc); ok {
		t.Fatal("mobility rules are tag-qualified")
	}
	_, _, _, mob := f.RuleBreakdown()
	if mob != 1 {
		t.Fatalf("mobility rules = %d", mob)
	}
}

func TestFIBRuleBreakdown(t *testing.T) {
	f := NewFIB(0)
	p := pfx(packet.AddrFrom4(10, 0, 16, 0), 20)
	f.SetDefault(Down, 1, ToNode(1))
	f.InsertPrefix(Down, 1, p, ToNode(2))
	f.SetMBDefault(Up, 3, 1, ToNode(4))
	f.InsertMobility(Up, 9, packet.AddrFrom4(10, 0, 16, 9), ToNode(5))
	tp, to, loc, mob := f.RuleBreakdown()
	if tp != 1 || to != 2 || loc != 0 || mob != 1 {
		t.Fatalf("breakdown = %d %d %d %d", tp, to, loc, mob)
	}
	if f.NumRules() != 4 {
		t.Fatalf("NumRules = %d", f.NumRules())
	}
}

func TestFIBRecentTags(t *testing.T) {
	f := NewFIB(0)
	for tag := packet.Tag(1); tag <= 5; tag++ {
		f.SetDefault(Down, tag, ToNode(1))
	}
	all := f.RecentTags(0)
	if len(all) != 5 {
		t.Fatalf("all tags = %v", all)
	}
	last2 := f.RecentTags(2)
	if len(last2) != 2 || last2[0] != 4 || last2[1] != 5 {
		t.Fatalf("last 2 = %v", last2)
	}
	// Duplicate introduction does not duplicate the tag list.
	f.InsertPrefix(Down, 5, pfx(0, 20), ToNode(2))
	if len(f.RecentTags(0)) != 5 {
		t.Fatal("tag list should not duplicate")
	}
}

func TestNextHopHelpers(t *testing.T) {
	if !(NextHop{Node: topo.None, MB: NoMB}).Zero() {
		t.Fatal("zero detection")
	}
	if ToNode(3).Zero() || ToMB(2).Zero() {
		t.Fatal("non-zero detection")
	}
	if ToNode(3).String() != "sw3" || ToMB(2).String() != "mb#2" {
		t.Fatal("strings")
	}
	if Down.String() != "down" || Up.String() != "up" {
		t.Fatal("direction strings")
	}
}

// exportSet is a FIB's exported rules as a set.
func exportSet(f *FIB) map[ExportedRule]bool {
	out := make(map[ExportedRule]bool)
	f.Export(func(r ExportedRule) { out[r] = true })
	return out
}

// TestInstallPathBumpsChangedFIBs checks Algorithm 1's direct trie writes:
// every switch whose exported rules an install changes must report a new
// stamp, with and without prefix aggregation.
func TestInstallPathBumpsChangedFIBs(t *testing.T) {
	for _, opts := range []InstallerOptions{{}, {NoPrefixAggregation: true}, {NoTagDefault: true}} {
		n := newFig3Net(t)
		in := mustInstaller(t, n.Topology, opts)
		pl := routing.NewPlanner(n.Topology)
		for bs := packet.BSID(0); bs < 4; bs++ {
			for _, chain := range [][]topo.MBType{{0}, {0, 1}, {1, 0}} {
				before := make([]FIBStamp, len(in.fibs))
				sets := make([]map[ExportedRule]bool, len(in.fibs))
				for i, f := range in.fibs {
					before[i], sets[i] = f.Stamp(), exportSet(f)
				}
				route, err := pl.Plan(bs, chain, n.gw)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := in.InstallPath(route); err != nil {
					t.Fatal(err)
				}
				for i, f := range in.fibs {
					after := exportSet(f)
					same := len(after) == len(sets[i])
					for r := range after {
						same = same && sets[i][r]
					}
					if !same && f.Stamp() == before[i] {
						t.Fatalf("opts %+v bs %d chain %v: switch %d's rules changed but its stamp did not", opts, bs, chain, i)
					}
				}
			}
		}
	}
}
