// Package hypart implements HyPart (Section IV): data partitioning for
// deep and collective ER in place of blocking. It extends the Hypercube
// algorithm to a set of MRLs using the MQO hash-function assignment, lays
// tuples out over virtual blocks (n² blocks for n workers), and assigns
// blocks to workers with an LPT minimum-makespan heuristic to balance the
// load.
//
// The partition has the locality property of Lemma 6: every valuation of
// every rule is fully contained in at least one fragment, so checking
// D ⊨ Σ (and chasing) can be done locally, with only deduced matches and
// validated ML predictions exchanged between workers.
//
// Partition itself is parallel and flat: columns are hashed once each,
// every rule's hypercube is compiled into a table of cells carrying
// global block ids before any tuple is read, the (rule, variable) scans
// are sharded over Options.Shards goroutines that append GIDs to private
// per-block runs, and reusable bitsets turn those runs into sorted,
// unique member lists. The output is byte-identical for every shard
// count and schedule.
package hypart

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"dcer/internal/mqo"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
)

// Options configures the partitioner.
type Options struct {
	// Share enables MQO hash-function sharing (HyPart proper); false is
	// the DMatch_noMQO configuration.
	Share bool
	// VirtualBlocks overrides the number of virtual blocks; 0 means n².
	VirtualBlocks int
	// ReplicationCap bounds the per-tuple copy factor of any rule: a
	// dimension is only enlarged while every tuple variable's broadcast
	// product stays within the cap. This is the pragmatic stand-in for
	// the Lagrangean extent allocation of Afrati-Ullman — wide collective
	// rules keep locality (Lemma 6) but are spread over fewer blocks.
	// Replication is inherent to Hypercube multi-way joins (the
	// communication-optimal factor for a ρ-wide join is n^(1-1/ρ)), so
	// the default grows with the worker count: max(4, n/2).
	ReplicationCap int
	// Shards is the number of goroutines each phase of the pass (column
	// hashing, tuple scans, block extraction) fans out over; 0 means
	// GOMAXPROCS, 1 runs those phases on the calling goroutine. The
	// output is byte-identical for every value.
	Shards int
	// Metrics, when non-nil, receives the partition shape as histograms:
	// dcer_hypart_fragment_size (tuples per worker fragment, one
	// observation per worker) and dcer_hypart_block_size (tuples per
	// non-empty virtual block). Nil disables with no overhead.
	Metrics *telemetry.Registry
	// Trace parents the partition's causal spans: a hypart.Partition
	// root with a hypart.hash span, one hypart.shard.scan span per scan
	// goroutine (each on its own shard lane), then hypart.extract and
	// hypart.assign. The zero value disables capture; when Metrics is
	// set and Trace is not, a root is derived from the registry's tracer.
	Trace telemetry.TraceContext
}

// Stats reports the partitioning work, for the Exp-2 experiments.
type Stats struct {
	HashComputations int64 // distinct hash-function evaluations
	HashLookups      int64 // total evaluations incl. memoized reuse
	GeneratedTuples  int64 // |H(Σ,D)|: tuple copies generated before dedup
	PlacedTuples     int64 // tuple copies after per-block dedup
	Blocks           int   // non-empty virtual blocks
	HashFns          int   // hash functions used (after sharing)
	HashFnsBaseline  int   // one-per-distinct-variable baseline
	MaxFragment      int
	MinFragment      int
	Shards           int // goroutines the partition pass actually used
}

// Block is one virtual block of the computed partition: its canonical
// identity (the sorted packed (fn, extent, bucket) triples), its member
// tuples, the rules whose hypercubes generated it, and the worker the LPT
// assignment placed it on. Blocks are retained in the Result so the
// master can re-assign them later (worker-failure recovery in dmatch)
// without re-partitioning.
type Block struct {
	Canon  []uint64       // sorted packed dims; the deterministic identity
	GIDs   []relation.TID // sorted member tuples
	Rules  []int          // sorted indices of the rules generating the block
	Worker int            // LPT assignment
}

// Result is the computed partition.
type Result struct {
	// Fragments[i] lists the GIDs assigned to worker i (deduplicated):
	// the union of the virtual blocks placed on the worker.
	Fragments [][]relation.TID
	// RuleFragments[i][r] lists the GIDs of worker i's blocks that were
	// generated for rule r. Hypercube semantics evaluate each rule within
	// its own blocks; scoping the chase per rule avoids every rule
	// re-scanning tuples that other rules' blocks brought to the worker.
	RuleFragments [][][]relation.TID
	// Blocks lists the non-empty virtual blocks in canonical order (nil
	// on the n=1 fast path, which has no blocks to balance).
	Blocks []Block
	Plan   *mqo.Plan
	Stats  Stats
}

// dim is one hypercube dimension of a rule: a distinct-variable class with
// its hash function and extent.
type dim struct {
	dv   *rule.DistinctVar
	fn   int
	size int
}

func errWorkers(n int) error {
	return fmt.Errorf("hypart: need at least one worker, got %d", n)
}

// effectiveRepCap resolves the replication-cap default: max(4, n/2).
func effectiveRepCap(cap, n int) int {
	if cap > 0 {
		return cap
	}
	out := 4
	if n/2 > out {
		out = n / 2
	}
	return out
}

// partitionSingle is the n=1 fast path: one fragment holding everything.
func partitionSingle(d *relation.Dataset, rules []*rule.Rule, res *Result, metrics *telemetry.Registry) *Result {
	ids := make([]relation.TID, 0, d.Size())
	for _, t := range d.Tuples() {
		ids = append(ids, t.GID)
	}
	res.Fragments = [][]relation.TID{ids}
	perRule := make([][]relation.TID, len(rules))
	for r := range perRule {
		perRule[r] = ids
	}
	res.RuleFragments = [][][]relation.TID{perRule}
	res.Stats.MaxFragment, res.Stats.MinFragment = len(ids), len(ids)
	metrics.Histogram("dcer_hypart_fragment_size").Observe(uint64(len(ids)))
	return res
}

// packDim packs one (fn, extent, bucket) dimension into a uint64 so block
// identities are short integer vectors instead of concatenated strings.
// Numeric order on the packed value equals (fn, extent, bucket)
// lexicographic order, so sorting packed dims canonicalizes a key exactly
// like the seed partitioner's sorted string parts. The fields are bounded
// far below the packing widths: fn by the plan's hash-function count,
// extent and bucket by the virtual-block budget n².
func packDim(fn, size, coord int) uint64 {
	return uint64(fn)<<40 | uint64(size)<<20 | uint64(coord)
}

// canonLess orders canonical keys: shorter first, then elementwise.
func canonLess(a, b []uint64) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// cellTable is one rule's hypercube, compiled before the scan: its
// dimensions, each dimension's stride in the flat cell index
// Σ coord·stride, and the global block of every cell. Cells of different
// rules with the same canonical key map to the same block, so MQO block
// sharing is settled here, once, instead of per emitted copy.
type cellTable struct {
	dims    []dim
	strides []int
	blocks  []int32 // cell -> block id; ids follow canonical key order
	hitBase int     // offset of this rule's cells in a shard's hit table
}

// compileCells builds every rule's cell table and returns, per block id,
// the canonical key. Block ids are numbered in canonical key order, so
// the non-empty blocks in id order are already in the Result's order.
// The work is per cell (at most VirtualBlocks per rule), never per tuple.
func compileCells(ruleDims [][]dim) (tables []cellTable, canons [][]uint64, totalCells int) {
	tables = make([]cellTable, len(ruleDims))
	index := make(map[string]int32) // canonical key bytes -> provisional id
	var keyBytes []byte
	for ri, dims := range ruleDims {
		ct := cellTable{dims: dims, strides: make([]int, len(dims)), hitBase: totalCells}
		cells := 1
		for d := range dims {
			ct.strides[d] = cells
			cells *= dims[d].size
		}
		ct.blocks = make([]int32, cells)
		key := make([]uint64, len(dims))
		for c := range ct.blocks {
			for d := range dims {
				key[d] = packDim(dims[d].fn, dims[d].size, c/ct.strides[d]%dims[d].size)
			}
			// Insertion sort: keys are tiny (one element per dimension).
			for i := 1; i < len(key); i++ {
				for j := i; j > 0 && key[j] < key[j-1]; j-- {
					key[j], key[j-1] = key[j-1], key[j]
				}
			}
			keyBytes = keyBytes[:0]
			for _, k := range key {
				keyBytes = binary.LittleEndian.AppendUint64(keyBytes, k)
			}
			id, ok := index[string(keyBytes)]
			if !ok {
				id = int32(len(canons))
				index[string(keyBytes)] = id
				canons = append(canons, append([]uint64(nil), key...))
			}
			ct.blocks[c] = id
		}
		totalCells += cells
		tables[ri] = ct
	}
	order := make([]int32, len(canons))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return canonLess(canons[order[i]], canons[order[j]]) })
	rank := make([]int32, len(canons))
	sorted := make([][]uint64, len(canons))
	for r, id := range order {
		rank[id] = int32(r)
		sorted[r] = canons[id]
	}
	for ri := range tables {
		for c, id := range tables[ri].blocks {
			tables[ri].blocks[c] = rank[id]
		}
	}
	return tables, sorted, totalCells
}

// column is one distinct (relation, attribute) column of one hash
// function: every scan that hashes it reads the one hash array.
type column struct {
	rel  *relation.Relation
	attr int
	hash []uint32 // hash of rel.Tuples[i]'s attribute
}

// hashedDim is a scan's hashed dimension with extent > 1. Extents are
// powers of two (buildDims only doubles), so hash % size is hash & mask.
type hashedDim struct {
	hash   []uint32
	mask   uint32
	stride int
}

// varScan is one (rule, variable) scan: the rule's cell table, the
// variable's relation, its hashed dimensions, and the cell offsets of
// every broadcast combination (Σ b·stride over the dimensions the
// variable does not hash).
type varScan struct {
	ct      *cellTable
	tuples  []*relation.Tuple
	hashed  []hashedDim
	offsets []int
}

// scanShard is one scan goroutine's output: the GIDs it emitted,
// duplicates included, grouped by block — block b's are
// gids[end[b]-count[b]:end[b]] — and which rule cells it emitted into.
type scanShard struct {
	count []int // copies per block id
	end   []int // per block id: fill cursor, then end of its run
	gids  []relation.TID
	hit   []bool // by cellTable.hitBase + cell
}

// scan runs one unit: Σ coord·stride locates each tuple's cell, each
// broadcast offset one copy. Without fill it counts copies per block and
// marks hit cells; with fill it writes each copy's GID at its block's
// cursor, which must start where the counts put it.
func (sh *scanShard) scan(u unit, fill bool) {
	sc := u.scan
	blocks, hit := sc.ct.blocks, sh.hit[sc.ct.hitBase:]
	for i := u.lo; i < u.hi; i++ {
		cell := 0
		for _, hd := range sc.hashed {
			cell += int(hd.hash[i]&hd.mask) * hd.stride
		}
		if !fill {
			for _, off := range sc.offsets {
				sh.count[blocks[cell+off]]++
				hit[cell+off] = true
			}
			continue
		}
		gid := sc.tuples[i].GID
		for _, off := range sc.offsets {
			b := blocks[cell+off]
			sh.gids[sh.end[b]] = gid
			sh.end[b]++
		}
	}
}

// unit is one shard work item: a tuple range of one varScan.
type unit struct {
	scan   *varScan
	lo, hi int
}

// unitChunk bounds the tuples per work unit so large relations split
// across shards while the unit list stays short.
const unitChunk = 2048

// idSet turns GID lists with duplicates into sorted unique lists through
// a bitset over the id space: no map, no sort. One idSet is reused for
// every list its goroutine extracts; take leaves it empty again.
type idSet struct {
	words  []uint64
	lo, hi int // touched word range; lo > hi when empty
	n      int // distinct ids added since the last take
}

func newIDSet(space int) *idSet {
	words := (space + 63) / 64
	return &idSet{words: make([]uint64, words), lo: words, hi: -1}
}

func (s *idSet) add(ids []relation.TID) {
	for _, id := range ids {
		w, bit := int(id)>>6, uint64(1)<<(uint(id)&63)
		if s.words[w]&bit == 0 {
			s.words[w] |= bit
			s.n++
			s.lo, s.hi = min(s.lo, w), max(s.hi, w)
		}
	}
}

// take returns the added ids in ascending order (a non-nil slice, empty
// when nothing was added) and clears the set.
func (s *idSet) take() []relation.TID {
	out := make([]relation.TID, 0, s.n)
	for w := s.lo; w <= s.hi; w++ {
		for word := s.words[w]; word != 0; word &= word - 1 {
			out = append(out, relation.TID(w<<6+bits.TrailingZeros64(word)))
		}
		s.words[w] = 0
	}
	s.lo, s.hi, s.n = len(s.words), -1, 0
	return out
}

// fanOut runs body(g) for g in [0, goroutines) concurrently — inline when
// there is only one — and waits for all of them. Bodies share work
// through an atomic cursor (see claimer).
func fanOut(goroutines int, body func(g int)) {
	if goroutines <= 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			body(g)
		}(g)
	}
	wg.Wait()
}

// claimer hands out the indexes 0..n-1 once each, across goroutines; it
// returns -1 when they are exhausted.
func claimer(n int) func() int {
	var next atomic.Int64
	return func() int {
		if i := int(next.Add(1)) - 1; i < n {
			return i
		}
		return -1
	}
}

// Partition splits dataset d into n fragments for the rule set Σ.
//
// The pass has four phases, none doing a lock, map operation, sort or
// allocation per tuple copy; the first three fan out over Options.Shards
// goroutines, the fourth over the workers. (1) Every distinct (hash
// function, relation, attribute) column is hashed once into an array;
// each hash function's memo belongs to one goroutine. (2) Each rule's
// hypercube is compiled into a cell table whose cells carry global block
// ids (compileCells), so a scan computes a tuple's cell as Σ coord·stride,
// adds each broadcast offset, and writes the GID into its goroutine's run
// for that block. (3) Each block's sorted, unique members are extracted
// through one reusable bitset. (4) LPT places the blocks and
// BuildFragments unions them per worker and per (worker, rule) the same
// way. The output does not depend on the shard count or the schedule.
func Partition(d *relation.Dataset, rules []*rule.Rule, n int, opts Options) (*Result, error) {
	if n < 1 {
		return nil, errWorkers(n)
	}
	tc := opts.Trace
	if !tc.Enabled() && opts.Metrics != nil {
		tc = opts.Metrics.Tracer().NewTrace(telemetry.PIDHyPart, 0)
	}
	root := tc.Start("hypart.Partition", telemetry.L("workers", strconv.Itoa(n)))
	defer root.End()
	ptc := root.Context()

	plan, err := mqo.Build(rules, opts.Share)
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: plan}
	res.Stats.HashFns, res.Stats.HashFnsBaseline = plan.Savings()
	if n == 1 {
		res.Stats.Shards = 1
		return partitionSingle(d, rules, res, opts.Metrics), nil
	}

	vb := opts.VirtualBlocks
	if vb == 0 {
		vb = n * n
	}
	repCap := effectiveRepCap(opts.ReplicationCap, n)
	relSizes := make([]int, len(d.Relations))
	for i, rel := range d.Relations {
		relSizes[i] = len(rel.Tuples)
	}
	ruleDims := make([][]dim, len(plan.Assignments))
	for ri, ra := range plan.Assignments {
		ruleDims[ri] = buildDims(ra, vb, repCap, relSizes)
	}
	tables, canons, totalCells := compileCells(ruleDims)

	// Prepare the per-(rule, variable) scans, chunked into work units,
	// and the distinct columns they hash, grouped by hash function.
	var units []unit
	fnCols := make([][]*column, plan.NumHashFns)
	colOf := func(fn int, rel *relation.Relation, attr int) *column {
		for _, c := range fnCols[fn] {
			if c.rel == rel && c.attr == attr {
				return c
			}
		}
		c := &column{rel: rel, attr: attr, hash: make([]uint32, len(rel.Tuples))}
		fnCols[fn] = append(fnCols[fn], c)
		return c
	}
	for ri, ra := range plan.Assignments {
		ct := &tables[ri]
		for vi, v := range ra.Rule.Vars {
			rel := d.Relations[v.RelIdx]
			sc := &varScan{ct: ct, tuples: rel.Tuples, offsets: []int{0}}
			for di, dm := range ct.dims {
				if attr, ok := dm.dv.AttrOf(vi); ok {
					col := colOf(dm.fn, rel, attr)
					res.Stats.HashLookups += int64(len(rel.Tuples))
					if dm.size > 1 {
						sc.hashed = append(sc.hashed, hashedDim{col.hash, uint32(dm.size - 1), ct.strides[di]})
					}
				} else if dm.size > 1 {
					var offs []int
					for b := 0; b < dm.size; b++ {
						for _, off := range sc.offsets {
							offs = append(offs, off+b*ct.strides[di])
						}
					}
					sc.offsets = offs
				}
			}
			res.Stats.GeneratedTuples += int64(len(rel.Tuples) * len(sc.offsets))
			for lo := 0; lo < len(sc.tuples); lo += unitChunk {
				units = append(units, unit{sc, lo, min(lo+unitChunk, len(sc.tuples))})
			}
		}
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	res.Stats.Shards = max(1, min(shards, len(units)))

	// Phase 1: hash every column, one hash function per work item.
	hsp := ptc.Start("hypart.hash")
	hashers := make([]mqo.WordHasher, max(1, min(shards, len(fnCols))))
	nextFn := claimer(len(fnCols))
	fanOut(len(hashers), func(g int) {
		h := &hashers[g]
		for fn := nextFn(); fn >= 0; fn = nextFn() {
			h.Use(fn)
			for _, c := range fnCols[fn] {
				h.HashColumn(c.rel, c.attr, c.hash)
			}
		}
	})
	for g := range hashers {
		res.Stats.HashComputations += hashers[g].Computations
	}
	hsp.End()

	// Phase 2: scan, twice over the same units per goroutine: once to
	// count each block's copies, once to write them into one exactly
	// sized array, so the goroutine allocates nothing per copy.
	out := make([]scanShard, res.Stats.Shards)
	nextUnit := claimer(len(units))
	fanOut(len(out), func(g int) {
		var sp telemetry.Span
		if ptc.Enabled() {
			// Each scan goroutine renders on its own shard lane.
			sp = ptc.Lane(telemetry.PIDHyPart, int32(g+1)).Start("hypart.shard.scan")
		}
		sh := &out[g]
		sh.count = make([]int, len(canons))
		sh.hit = make([]bool, totalCells)
		var mine []int
		for ui := nextUnit(); ui >= 0; ui = nextUnit() {
			mine = append(mine, ui)
			sh.scan(units[ui], false)
		}
		sh.end = make([]int, len(canons))
		total := 0
		for b, c := range sh.count {
			sh.end[b] = total
			total += c
		}
		sh.gids = make([]relation.TID, total)
		for _, ui := range mine {
			sh.scan(units[ui], true)
		}
		sp.End()
	})

	// Phase 3: a block exists when some rule emitted into one of its
	// cells; those rules are its Rules (ascending, since ri ascends).
	esp := ptc.Start("hypart.extract")
	blockRules := make([][]int, len(canons))
	for ri := range tables {
		ct := &tables[ri]
		for c, b := range ct.blocks {
			for _, sh := range out {
				if sh.hit[ct.hitBase+c] {
					if rs := blockRules[b]; len(rs) == 0 || rs[len(rs)-1] != ri {
						blockRules[b] = append(rs, ri)
					}
					break
				}
			}
		}
	}
	ids := make([]int32, 0, len(canons)) // block id of each Result block
	for b, rs := range blockRules {
		if len(rs) > 0 {
			ids = append(ids, int32(b))
		}
	}
	res.Blocks = make([]Block, len(ids))
	space := idSpace(d)
	nextBlock := claimer(len(ids))
	fanOut(min(shards, len(ids)), func(int) {
		set := newIDSet(space)
		for i := nextBlock(); i >= 0; i = nextBlock() {
			b := ids[i]
			for _, sh := range out {
				set.add(sh.gids[sh.end[b]-sh.count[b] : sh.end[b]])
			}
			res.Blocks[i] = Block{Canon: canons[b], GIDs: set.take(), Rules: blockRules[b]}
		}
	})
	for i := range res.Blocks {
		res.Stats.PlacedTuples += int64(len(res.Blocks[i].GIDs))
	}
	res.Stats.Blocks = len(res.Blocks)
	if opts.Metrics != nil {
		bh := opts.Metrics.Histogram("dcer_hypart_block_size")
		for i := range res.Blocks {
			bh.Observe(uint64(len(res.Blocks[i].GIDs)))
		}
	}
	esp.End()

	// Phase 4: LPT minimum-makespan assignment of virtual blocks to
	// workers by block size (the static cost model; crash recovery in
	// dmatch moves a dead worker's blocks with the same greedy rule).
	asp := ptc.Start("hypart.assign")
	defer asp.End()
	costs := make([]float64, len(res.Blocks))
	for i := range res.Blocks {
		costs[i] = float64(len(res.Blocks[i].GIDs))
	}
	assign := assignLPT(costs, n)
	for i := range res.Blocks {
		res.Blocks[i].Worker = assign[i]
	}
	res.Fragments, res.RuleFragments = BuildFragments(res.Blocks, assign, n, len(rules))
	res.Stats.MinFragment = int(^uint(0) >> 1)
	for i, ids := range res.Fragments {
		res.Stats.MaxFragment = max(res.Stats.MaxFragment, len(ids))
		res.Stats.MinFragment = min(res.Stats.MinFragment, len(ids))
		opts.Metrics.Histogram("dcer_hypart_fragment_size").Observe(uint64(len(res.Fragments[i])))
	}
	return res, nil
}

// idSpace is one past the largest GID of d.
func idSpace(d *relation.Dataset) int {
	space := 0
	for _, t := range d.Tuples() {
		space = max(space, int(t.GID)+1)
	}
	return space
}

// assignLPT assigns blocks to n workers with the LPT minimum-makespan
// heuristic over the given per-block costs (Partition passes block
// sizes): blocks in descending cost order (ties by block index, which is
// canonical key order) go to the least-loaded worker (ties to the lowest
// worker).
func assignLPT(costs []float64, n int) []int {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return costs[order[i]] > costs[order[j]] })
	load := make([]float64, n)
	assign := make([]int, len(costs))
	for _, b := range order {
		w := 0
		for i := 1; i < n; i++ {
			if load[i] < load[w] {
				w = i
			}
		}
		assign[b] = w
		load[w] += costs[b]
	}
	return assign
}

// BuildFragments materializes the per-worker fragments and per-rule rule
// scopes implied by an assignment of blocks to workers: Fragments[i] is
// the sorted union of worker i's blocks, RuleFragments[i][r] the sorted
// union of its blocks generated for rule r. Every list is non-nil. The
// unions go through one reusable bitset per goroutine (Block.GIDs are
// sorted, so the last GID of each block bounds the id space), and the
// workers are built concurrently.
func BuildFragments(blocks []Block, assign []int, n, numRules int) ([][]relation.TID, [][][]relation.TID) {
	space := 0
	byWorker := make([][]int, n)
	for b := range blocks {
		if gids := blocks[b].GIDs; len(gids) > 0 {
			space = max(space, int(gids[len(gids)-1])+1)
		}
		byWorker[assign[b]] = append(byWorker[assign[b]], b)
	}
	frags := make([][]relation.TID, n)
	ruleFrags := make([][][]relation.TID, n)
	nextWorker := claimer(n)
	fanOut(min(n, runtime.GOMAXPROCS(0)), func(int) {
		set := newIDSet(space)
		byRule := make([][]int, numRules)
		for w := nextWorker(); w >= 0; w = nextWorker() {
			for ri := range byRule {
				byRule[ri] = byRule[ri][:0]
			}
			for _, b := range byWorker[w] {
				set.add(blocks[b].GIDs)
				for _, ri := range blocks[b].Rules {
					byRule[ri] = append(byRule[ri], b)
				}
			}
			frags[w] = set.take()
			ruleFrags[w] = make([][]relation.TID, numRules)
			for ri, bs := range byRule {
				for _, b := range bs {
					set.add(blocks[b].GIDs)
				}
				ruleFrags[w][ri] = set.take()
			}
		}
	})
	return frags, ruleFrags
}

// buildDims allocates hypercube extents to a rule's dimensions by greedy
// doubling, the pragmatic stand-in for the Lagrangean allocation of
// Afrati-Ullman: at each step it doubles the dimension whose member
// variables contribute the most tuples to each block (so the doubling
// shrinks the expected block the most), refusing any doubling that would
// push some variable's broadcast product beyond repCap or exceed the block
// budget vb. Constant-pinned dimensions carry one value and keep extent 1.
func buildDims(ra *mqo.RuleAssignment, vb, repCap int, relSizes []int) []dim {
	dims := make([]dim, len(ra.DVs))
	for _, di := range ra.DimOrder {
		dims[di] = dim{dv: ra.DVs[di], fn: ra.HashFn[di], size: 1}
	}
	nvars := len(ra.Rule.Vars)
	// replication(v) = product of extents of dimensions without a member
	// on v — the number of copies each tuple bound to v generates.
	replication := func(v int) int {
		r := 1
		for di := range dims {
			if _, ok := dims[di].dv.AttrOf(v); !ok {
				r *= dims[di].size
			}
		}
		return r
	}
	// contribution(v) = expected tuples variable v places in one block.
	contribution := func(v int) float64 {
		c := float64(relSizes[ra.Rule.Vars[v].RelIdx])
		for di := range dims {
			if _, ok := dims[di].dv.AttrOf(v); ok {
				c /= float64(dims[di].size)
			}
		}
		return c
	}
	product := 1
	for product*2 <= vb {
		best, bestGain := -1, 0.0
		for di := range dims {
			if dims[di].dv.Const {
				continue
			}
			// Doubling di halves its member variables' block contribution
			// but doubles the broadcast of every non-member variable;
			// check the cap.
			ok := true
			gain := 0.0
			for v := 0; v < nvars; v++ {
				if _, member := dims[di].dv.AttrOf(v); member {
					gain += contribution(v) / 2
				} else if replication(v)*2 > repCap {
					ok = false
					break
				}
			}
			if !ok || gain <= 0 {
				continue
			}
			if best < 0 || gain > bestGain {
				best, bestGain = di, gain
			}
		}
		if best < 0 {
			break
		}
		dims[best].size *= 2
		product *= 2
	}
	return dims
}
