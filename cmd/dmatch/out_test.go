package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"dcer"
	"dcer/internal/datagen"
)

// TestMain lets a test re-execute this binary as the dmatch command.
func TestMain(m *testing.M) {
	if os.Getenv("DMATCH_TEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOutCanonicalAcrossWorkers runs the command at -workers 1 (the
// sequential Match) and -workers 2 (DMatch) over the same generated
// dataset and requires byte-identical -out CSVs: Γ's serialisation is a
// function of the dataset and rules, not of the execution mode.
func TestOutCanonicalAcrossWorkers(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Skip("cannot locate test binary")
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	// At this scale the sequential engine holds some class members out
	// of id order, which is what the canonical sort must undo.
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.7, Dup: 0.3, Seed: 7})
	if err := dcer.SaveDir(g.D, data); err != nil {
		t.Fatal(err)
	}
	rules := filepath.Join(dir, "rules.mrl")
	if err := os.WriteFile(rules, []byte(g.RulesText), 0o644); err != nil {
		t.Fatal(err)
	}
	out := func(workers int) []byte {
		path := filepath.Join(dir, "w"+strconv.Itoa(workers)+".csv")
		cmd := exec.Command(exe, "-data", data, "-rules", rules, "-workers", strconv.Itoa(workers), "-out", path)
		cmd.Env = append(os.Environ(), "DMATCH_TEST_RUN_MAIN=1")
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("dmatch -workers %d: %v\n%s", workers, err, msg)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	w1, w2 := out(1), out(2)
	if bytes.Count(w1, []byte("\n")) < 10 {
		t.Fatalf("-out holds %d lines; the dataset resolved too few entities to compare", bytes.Count(w1, []byte("\n")))
	}
	if !bytes.Equal(w1, w2) {
		t.Error("-workers 1 and -workers 2 wrote different -out CSVs")
	}
}
