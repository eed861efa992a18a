package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"dcer"
	"dcer/internal/datagen"
)

// Input layout written by writeInputs under one directory. The program
// under test reads only data/, delta/ and rules.mrl; truth.csv is the
// harness's answer key and sits outside data/ so LoadDir never sees it.
const (
	dataSub   = "data"       // *.csv loaded by LoadDir
	deltaSub  = "delta"      // held-back rows of the stream workload
	streamTxt = "stream.txt" // relation of each held-back row, in insert order
	rulesFile = "rules.mrl"
	truthFile = "truth.csv" // planted duplicates as (relation, id) pairs
)

// Generator settings. A run resolves several datasets, each from its own
// sub-seed, because one dataset's figures depend on which of two
// partitions HyPart picks for it (replication 3.84 or 4.30 at n=2, about
// even odds by seed, the second 30% slower end to end) and, at scale 1,
// on whether DMatch's skew rebalance fires for it (decided mostly by the
// dataset, 50% slower when it does): with eight datasets per run the
// rebalancing share ranged from 5% to 66% by seed and tpch-par2's
// match time spread 14% over ten seeds. Twenty-four datasets at half the
// scale average both out. The duplication rate is cmd/datagen's default.
const (
	tpchScale     = 0.5
	tpchDatasets  = 24
	movieScale    = 1.5
	movieDatasets = 4
	dupRate       = 0.3
	holdBack      = 0.2 // share of each relation the stream workload inserts
	batchSize     = 50  // tuples per InsertTuples call
)

// writeInputs generates the dataset of kind ("tpch" or "movie") from seed
// at the given scale and writes it under dir. stream holds back the last
// holdBack share of every relation as delta/, with stream.txt fixing a
// seeded insert order across relations.
func writeInputs(dir, kind string, seed int64, scale float64, stream bool) error {
	var g *datagen.Generated
	switch kind {
	case "tpch":
		g = datagen.TPCH(datagen.TPCHOptions{Scale: scale, Dup: dupRate, Seed: seed})
	case "movie":
		g = &datagen.MovieLike(int(3000*scale), dupRate, seed).Generated
	default:
		return fmt.Errorf("unknown dataset kind %q", kind)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, rulesFile), []byte(g.RulesText), 0o644); err != nil {
		return err
	}
	if err := writeTruth(filepath.Join(dir, truthFile), g); err != nil {
		return err
	}
	if !stream {
		return dcer.SaveDir(g.D, filepath.Join(dir, dataSub))
	}
	base, delta := dcer.NewDataset(g.D.DB), dcer.NewDataset(g.D.DB)
	var held []string            // relation name of every held-back row
	next := make(map[string]int) // first held-back row of each relation
	for ri, rel := range g.D.Relations {
		keep := len(rel.Tuples) - int(holdBack*float64(len(rel.Tuples)))
		for _, t := range rel.Tuples[:keep] {
			base.AppendUnchecked(ri, t.Values()...)
		}
		for range rel.Tuples[keep:] {
			held = append(held, rel.Schema.Name)
		}
		next[rel.Schema.Name] = keep
	}
	// Shuffle the interleaving, then write each relation's held-back rows
	// in the order the shuffle visits them.
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	for _, name := range held {
		rel := g.D.Relation(name)
		delta.AppendUnchecked(g.D.DB.SchemaIndex(name), rel.Tuples[next[name]].Values()...)
		next[name]++
	}
	if err := dcer.SaveDir(base, filepath.Join(dir, dataSub)); err != nil {
		return err
	}
	if err := dcer.SaveDir(delta, filepath.Join(dir, deltaSub)); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, streamTxt), []byte(strings.Join(held, "\n")+"\n"), 0o644)
}

// writeTruth writes the planted duplicate pairs keyed by (relation, id),
// so they stay valid however a loader numbers the tuples.
func writeTruth(path string, g *datagen.Generated) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, p := range g.Truth {
		fmt.Fprintf(w, "%s,%s\n", tupleKey(g.D, p[0]), tupleKey(g.D, p[1]))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tupleKey names a tuple by relation and id value ("orders:o17"), the
// identity Γ is compared under.
func tupleKey(d *dcer.Dataset, gid dcer.TID) string {
	t := d.Tuple(gid)
	s := d.SchemaOf(t)
	return s.Name + ":" + t.ID(s).String()
}

// parseRules reads the rule file of an input directory and resolves it
// against d's schema.
func parseRules(dir string, d *dcer.Dataset) ([]*dcer.Rule, error) {
	text, err := os.ReadFile(filepath.Join(dir, rulesFile))
	if err != nil {
		return nil, err
	}
	return dcer.ParseRules(string(text), d.DB)
}

// readTruth loads truth.csv as a set of unordered key pairs.
func readTruth(path string) (map[[2]string]bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	truth := make(map[[2]string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		a, c, ok := strings.Cut(line, ",")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		truth[pairKey(a, c)] = true
	}
	return truth, nil
}

func pairKey(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}
