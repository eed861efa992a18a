package hypart_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/hypart"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// partitionDigest hashes everything Partition decides: every block's
// canonical key, members, rules and worker, the fragments, the per-rule
// fragments, and the stats with Shards zeroed (the one field that follows
// the host, not the input).
func partitionDigest(res *hypart.Result) string {
	h := sha256.New()
	var buf []byte
	word := func(v uint64) { buf = binary.AppendUvarint(buf, v) }
	ids := func(list []relation.TID) {
		word(uint64(len(list)))
		for _, id := range list {
			word(uint64(id))
		}
	}
	word(uint64(len(res.Blocks)))
	for _, b := range res.Blocks {
		word(uint64(len(b.Canon)))
		for _, k := range b.Canon {
			word(k)
		}
		ids(b.GIDs)
		word(uint64(len(b.Rules)))
		for _, r := range b.Rules {
			word(uint64(r))
		}
		word(uint64(b.Worker))
	}
	word(uint64(len(res.Fragments)))
	for _, f := range res.Fragments {
		ids(f)
	}
	for _, per := range res.RuleFragments {
		word(uint64(len(per)))
		for _, f := range per {
			ids(f)
		}
	}
	st := res.Stats
	st.Shards = 0
	fmt.Fprintf(h, "%+v", st)
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// TestPartitionGolden pins Partition's complete output on the TPC-H
// workload the benchmark runs and on random rule sets, at every shard
// count: any change to block identity, membership, rule attribution, LPT
// placement, fragments or stats changes a digest.
func TestPartitionGolden(t *testing.T) {
	type instance struct {
		name  string
		d     *relation.Dataset
		rules []*rule.Rule
		n     int
		share bool
		want  string
	}
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.5, Dup: 0.3, Seed: 168})
	tpchRules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	cases := []instance{
		{"tpch/n=2", g.D, tpchRules, 2, true, "4b5a760090502cac9852f5df11e4bdbd3985191ec172c5b7130628178a869b07"},
		{"tpch/n=4", g.D, tpchRules, 4, true, "61aea5edd83a157588ac613797aedaec0f2f21055aad64a43981fdd910d363dc"},
		{"tpch/n=8", g.D, tpchRules, 8, true, "788bbd6711648f09718cceacc8fe776ce48d347846c0233fad11f055c510e12f"},
		{"tpch/n=2/nomqo", g.D, tpchRules, 2, false, "5c112a6324f94b704c59db7e39af848433dc65ec4c47d5ec694507abbe0e3964"},
	}
	for _, r := range []struct {
		seed          int64
		shared, nomqo string
	}{
		{1, "930a5a22fd9e5581ae23ac8ccc1225f7af46e77091a79a6fb801938305732035", "8ca4ca339a69dbfbb24a88e5eed2710d9c58faab4dca17430967bb85c922c455"},
		{5, "d708de85b36bb1f63b6eea703d684b46fd0edd928ff126fe3d602659d501ee89", "723aa46860244d3df21078c213700ccec5d188ba49202430c91b8e5928583be6"},
		{9, "14926bd96688a9d7c308a4fce98977c3c43959a4ad1faedb4dee1cd3c4858825", "d67b5c4bec9660149e3228b4f5438acefbfd780b3b3a345724cb5cfa1adc68ee"},
	} {
		d, rules := randomPartitionInstance(t, r.seed)
		cases = append(cases,
			instance{fmt.Sprintf("random%d/n=4", r.seed), d, rules, 4, true, r.shared},
			instance{fmt.Sprintf("random%d/n=3/nomqo", r.seed), d, rules, 3, false, r.nomqo})
	}
	for _, c := range cases {
		for _, shards := range []int{1, 2} {
			res, err := hypart.Partition(c.d, c.rules, c.n, hypart.Options{Share: c.share, Shards: shards})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got := partitionDigest(res); got != c.want {
				t.Errorf("%s shards=%d: digest %s, want %s", c.name, shards, got, c.want)
			}
		}
	}
}

// TestPartitionAllocBytes is the allocation-regression guard of the
// partition pass: the bytes Partition allocates per generated tuple copy
// on the benchmark's TPC-H shape. A per-copy map insert or per-block set
// costs tens of bytes per copy; flat per-rule cell lists and one reusable
// bitset cost a few. Bytes, not allocation counts: map growth allocates
// logarithmically, so a count barely moves when the copies grow 4×.
func TestPartitionAllocBytes(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.5, Dup: 0.3, Seed: 168})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := hypart.Partition(g.D, rules, 2, hypart.Options{Share: true, Shards: shards})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perCopy := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Stats.GeneratedTuples)
		t.Logf("shards=%d: %.1f bytes per generated copy (%d copies)", shards, perCopy, res.Stats.GeneratedTuples)
		if perCopy > 40 {
			t.Errorf("shards=%d: Partition allocates %.1f bytes per generated copy, want at most 40", shards, perCopy)
		}
	}
}
