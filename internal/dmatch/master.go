package dmatch

import (
	"dcer/internal/chase"
	"dcer/internal/relation"
	"dcer/internal/unionfind"
)

// masterState is the master's global view of a DMatch run, driven by the
// one superstep loop (bsp.go) in both execution modes: the global
// id-equivalence relation E_id with per-class host bitsets, the
// tuple→worker host lists, the per-destination delivery records
// (seen-sets), and the route scratch the per-superstep fold reuses.
// Phase 1 folds every new fact into Γ sequentially and computes its
// recipient bitset (two bitword ORs off the class roots); phase 2 builds
// each destination's inbox independently, suppressing re-deliveries.
type masterState struct {
	n       int // worker count (fixed; dead workers keep their slot)
	words   int // host-bitset words, (n+63)/64
	idSpace int
	d       *relation.Dataset

	guf      *unionfind.UnionFind
	hosts    [][]int          // hosts[gid] = workers hosting the tuple
	hostBits map[int][]uint64 // class root -> bitset of hosting workers
	seenML   map[chase.Fact]bool
	// seen[w] is worker w's delivery record: every fact routed to w plus
	// every fact w produced itself. The per-destination builders consult
	// it so a fact is never re-sent (Result.MessagesDeduped counts the
	// suppressions); a recovery rebuild resets it.
	seen []map[chase.Fact]struct{}

	// Route scratch, reused across supersteps: the fact list and the
	// recipient-bitset arena the per-destination builders read.
	routes []factRoute
	arena  []uint64
}

// factRoute is one routable fact of a superstep with its recipient bitset
// (an offset into the route arena, so arena growth never invalidates it).
type factRoute struct {
	f    chase.Fact
	from int
	off  int
}

// hasHost reports whether worker w appears in a host list.
func hasHost(hosts []int, w int) bool {
	for _, h := range hosts {
		if h == w {
			return true
		}
	}
	return false
}

// datasetIDSpace is the dense id-space bound of a dataset (max GID + 1).
// The master and the worker processes must derive the same value from the
// same dataset — it sizes every union-find and scoping structure.
func datasetIDSpace(d *relation.Dataset) int {
	idSpace := 0
	for _, t := range d.Tuples() {
		if int(t.GID)+1 > idSpace {
			idSpace = int(t.GID) + 1
		}
	}
	return idSpace
}

// newMasterState builds the master view over dataset d for n workers.
func newMasterState(d *relation.Dataset, n int) *masterState {
	idSpace := datasetIDSpace(d)
	ms := &masterState{
		n:       n,
		words:   (n + 63) / 64,
		idSpace: idSpace,
		d:       d,
		guf:     chase.BuildEquivalence(d, nil),
		seenML:  make(map[chase.Fact]bool),
		seen:    make([]map[chase.Fact]struct{}, n),
	}
	for i := range ms.seen {
		ms.seen[i] = make(map[chase.Fact]struct{})
	}
	return ms
}

// setHosts rebuilds the tuple→worker host lists from the fragments.
func (ms *masterState) setHosts(frags [][]relation.TID) {
	ms.hosts = make([][]int, ms.idSpace)
	for i, frag := range frags {
		for _, gid := range frag {
			ms.hosts[gid] = append(ms.hosts[gid], i)
		}
	}
}

// rebuildHostBits recomputes the per-class-root host bitsets. The master
// tracks, per class root, the bitset of workers hosting *any* member of
// the class: a match merging classes Ca and Cb must reach every worker
// hosting any member of either class — a worker hosting x and y needs the
// bridging fact (a,b) even when it hosts neither a nor b, otherwise
// transitive chains through remote tuples would be lost. Keeping host
// bitsets at the roots makes a recipient set two bitword ORs instead of a
// member-list walk, and class union a bitset merge.
func (ms *masterState) rebuildHostBits() {
	ms.hostBits = make(map[int][]uint64, ms.d.Size())
	for _, t := range ms.d.Tuples() {
		root := ms.guf.Find(int(t.GID))
		bs := ms.hostBits[root]
		if bs == nil {
			bs = make([]uint64, ms.words)
			ms.hostBits[root] = bs
		}
		for _, h := range ms.hosts[t.GID] {
			bs[h>>6] |= 1 << (uint(h) & 63)
		}
	}
}

// beginFold resets the route scratch for a new superstep.
func (ms *masterState) beginFold() {
	ms.routes = ms.routes[:0]
	ms.arena = ms.arena[:0]
}

// foldDelta folds one worker's superstep delta into the global Γ
// (phase 1, sequential): globally redundant matches are dropped, class
// merges fold the host bitsets, and every surviving fact is appended to
// the route list with its recipient bitset (the ΔΓ_i of the fixpoint
// equations). Matches/Validated accumulate into res in fold order, so
// callers must fold deltas in worker-index order for the deterministic
// Γ both execution modes share.
func (ms *masterState) foldDelta(w int, delta []chase.Fact, res *Result) {
	words := ms.words
	for _, f := range delta {
		if f.Kind == chase.FactMatch {
			ra, rb := ms.guf.Find(int(f.A)), ms.guf.Find(int(f.B))
			if ra == rb {
				continue // globally redundant
			}
			ba, bb := ms.hostBits[ra], ms.hostBits[rb]
			off := len(ms.arena)
			for i := 0; i < words; i++ {
				var x uint64
				if ba != nil {
					x = ba[i]
				}
				if bb != nil {
					x |= bb[i]
				}
				ms.arena = append(ms.arena, x)
			}
			ms.guf.Union(ra, rb)
			root := ms.guf.Find(ra)
			delete(ms.hostBits, ra)
			delete(ms.hostBits, rb)
			if ba == nil {
				ba = make([]uint64, words)
			}
			copy(ba, ms.arena[off:off+words])
			ms.hostBits[root] = ba
			res.Matches = append(res.Matches, f)
			ms.routes = append(ms.routes, factRoute{f: f, from: w, off: off})
		} else {
			if ms.seenML[f] {
				continue
			}
			ms.seenML[f] = true
			res.Validated = append(res.Validated, f)
			off := len(ms.arena)
			for i := 0; i < words; i++ {
				ms.arena = append(ms.arena, 0)
			}
			for _, h := range ms.hosts[f.A] {
				ms.arena[off+h>>6] |= 1 << (uint(h) & 63)
			}
			for _, h := range ms.hosts[f.B] {
				ms.arena[off+h>>6] |= 1 << (uint(h) & 63)
			}
			ms.routes = append(ms.routes, factRoute{f: f, from: w, off: off})
		}
	}
}

// buildDest assembles destination h's inbox from the folded routes
// (phase 2). selfDelta is the delta h itself produced this superstep; it
// joins h's delivery record first so self-produced facts are suppressed.
// Each destination owns its inbox, seen-set, and counters, so the fan-out
// is race-free and the built batches are identical to a sequential build.
func (ms *masterState) buildDest(h int, selfDelta []chase.Fact) (out []chase.Fact, routed, deduped int64) {
	sh := ms.seen[h]
	for _, f := range selfDelta {
		sh[f] = struct{}{}
	}
	for _, r := range ms.routes {
		if r.from == h || ms.arena[r.off+(h>>6)]&(1<<(uint(h)&63)) == 0 {
			continue
		}
		if _, dup := sh[r.f]; dup {
			deduped++
			continue
		}
		sh[r.f] = struct{}{}
		out = append(out, r.f)
		routed++
	}
	return out, routed, deduped
}

// replayFor builds the fact history a rebuilt worker w must replay: every
// match fact (bridging facts may concern tuples it doesn't host) and the
// validated predictions over tuples it now hosts.
func (ms *masterState) replayFor(w int, res *Result) []chase.Fact {
	replay := append([]chase.Fact(nil), res.Matches...)
	for _, f := range res.Validated {
		if hasHost(ms.hosts[f.A], w) || hasHost(ms.hosts[f.B], w) {
			replay = append(replay, f)
		}
	}
	return replay
}

// resetWorker replaces w's delivery record with the replay set (a rebuilt
// worker starts from the replayed history, nothing else).
func (ms *masterState) resetWorker(w int, replay []chase.Fact) {
	sh := make(map[chase.Fact]struct{}, len(replay))
	for _, f := range replay {
		sh[f] = struct{}{}
	}
	ms.seen[w] = sh
}
