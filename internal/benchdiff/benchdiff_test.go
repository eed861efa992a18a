package benchdiff

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// writeReport drops a minimal BENCH_*.json into dir and loads it back.
func writeReport(t *testing.T, dir, name, body string) *Report {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

const oldJSON = `{
  "goos": "linux", "goarch": "amd64", "gomaxprocs": 1, "scale": 2,
  "benchmarks": [
    {"name": "Deduce/sequential", "ns_per_op": 100000000, "bytes_per_op": 4096, "allocs_per_op": 10},
    {"name": "Deduce/parallel", "ns_per_op": 50000000, "bytes_per_op": 2048, "allocs_per_op": 5},
    {"name": "Partition/w8", "ns_per_op": 1000000, "bytes_per_op": 512, "allocs_per_op": 2}
  ],
  "memory": [
    {"name": "columnar", "bytes_per_tuple": 64.5, "peak_rss_bytes": 104857600}
  ]
}`

const newJSON = `{
  "goos": "linux", "goarch": "amd64", "gomaxprocs": 1, "numcpu": 1, "scale": 2,
  "benchmarks": [
    {"name": "Deduce/sequential", "ns_per_op": 130000000, "bytes_per_op": 4096, "allocs_per_op": 10},
    {"name": "Deduce/parallel", "ns_per_op": 48000000, "bytes_per_op": 2048, "allocs_per_op": 5},
    {"name": "Partition/w8", "ns_per_op": 3000000, "bytes_per_op": 512, "allocs_per_op": 2},
    {"name": "IncDeduce/batch", "ns_per_op": 7000000, "bytes_per_op": 128, "allocs_per_op": 1}
  ],
  "memory": [
    {"name": "columnar", "bytes_per_tuple": 64.5, "peak_rss_bytes": 110100480}
  ]
}`

func TestLoadAndLabel(t *testing.T) {
	dir := t.TempDir()
	r := writeReport(t, dir, "BENCH_6.json", oldJSON)
	if r.Label() != "BENCH_6" {
		t.Errorf("Label = %q, want BENCH_6", r.Label())
	}
	if r.GOMAXPROCS != 1 || len(r.Benchmarks) != 3 || len(r.Memory) != 1 {
		t.Errorf("parsed report wrong: %+v", r)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("Load of a missing file must fail")
	}
}

func TestWriteTables(t *testing.T) {
	dir := t.TempDir()
	oldR := writeReport(t, dir, "BENCH_6.json", oldJSON)
	newR := writeReport(t, dir, "BENCH_7.json", newJSON)

	var sb strings.Builder
	WriteTables(&sb, []*Report{oldR, newR})
	out := sb.String()

	for _, want := range []string{
		"ns/op", "B/op", "allocs/op", "peak RSS",
		"BENCH_6", "BENCH_7",
		"Deduce/sequential", "100.0ms", "130.0ms", "+30.0%",
		"Deduce/parallel", "-4.0%",
		"IncDeduce/batch", // present only in the new report → "-" in the old column
		"columnar", "100.0MiB",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tables missing %q:\n%s", want, out)
		}
	}
	// The arm absent from the old report renders a "-" cell there.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "IncDeduce/batch") && !strings.Contains(line, "-") {
			t.Errorf("missing-arm cell not dashed: %q", line)
		}
	}
}

func TestHeaderWarnings(t *testing.T) {
	dir := t.TempDir()
	oldR := writeReport(t, dir, "BENCH_6.json", oldJSON)
	newR := writeReport(t, dir, "BENCH_7.json", newJSON)

	// Same gomaxprocs/goos/goarch/scale; numcpu is recorded on only one
	// side, which must NOT warn (older reports predate the field).
	if w := HeaderWarnings([]*Report{oldR, newR}); len(w) != 0 {
		t.Errorf("unexpected warnings: %v", w)
	}

	wide := writeReport(t, dir, "BENCH_8.json",
		`{"goos":"linux","goarch":"arm64","gomaxprocs":8,"numcpu":8,"scale":4,"benchmarks":[]}`)
	warns := HeaderWarnings([]*Report{newR, wide})
	joined := strings.Join(warns, "\n")
	for _, want := range []string{"gomaxprocs", "numcpu", "goos/goarch", "scale"} {
		if !strings.Contains(joined, want) {
			t.Errorf("warnings missing %q mismatch: %v", want, warns)
		}
	}
}

func TestGate(t *testing.T) {
	dir := t.TempDir()
	oldR := writeReport(t, dir, "BENCH_6.json", oldJSON)
	newR := writeReport(t, dir, "BENCH_7.json", newJSON)
	reports := []*Report{oldR, newR}
	tier := regexp.MustCompile(`^(Deduce|IncDeduce)/`)

	// Deduce/sequential regressed +30%, Deduce/parallel improved;
	// Partition is outside the tier; IncDeduce/batch has no old side.
	regs := Gate(reports, tier, 10)
	if len(regs) != 1 || regs[0].Arm != "Deduce/sequential" {
		t.Fatalf("Gate(10%%) = %v, want just Deduce/sequential", regs)
	}
	if regs[0].DeltaPct < 29.9 || regs[0].DeltaPct > 30.1 {
		t.Errorf("delta = %.2f%%, want ~30%%", regs[0].DeltaPct)
	}
	if s := regs[0].String(); !strings.Contains(s, "Deduce/sequential") || !strings.Contains(s, "+30.0%") {
		t.Errorf("Regression.String() = %q", s)
	}

	// A generous threshold passes the same pair.
	if regs := Gate(reports, tier, 50); len(regs) != 0 {
		t.Errorf("Gate(50%%) = %v, want none", regs)
	}

	// An artificially lowered threshold fails even the improved arm's
	// sibling — this is the nonzero-exit path cmd/benchdiff takes.
	if regs := Gate(reports, tier, 0); len(regs) != 1 {
		t.Errorf("Gate(0%%) = %v, want the regressed arm", regs)
	}
	all := regexp.MustCompile(`.`)
	regs = Gate(reports, all, -100)
	if len(regs) != 3 {
		t.Fatalf("Gate(all, -100%%) = %v, want every comparable arm", regs)
	}
	// Sorted worst-first.
	for i := 1; i < len(regs); i++ {
		if regs[i-1].DeltaPct < regs[i].DeltaPct {
			t.Errorf("regressions not sorted by delta: %v", regs)
		}
	}

	if regs := Gate(reports[:1], tier, 0); regs != nil {
		t.Errorf("Gate with one report = %v, want nil", regs)
	}
}

// TestGateMissingArm: a gated arm the anchor measured but the fresh
// report lacks fails the gate, whatever the threshold; an ungated arm
// missing from the fresh report does not.
func TestGateMissingArm(t *testing.T) {
	dir := t.TempDir()
	oldR := writeReport(t, dir, "BENCH_6.json", oldJSON)
	fresh := writeReport(t, dir, "BENCH_7.json", `{
  "goos": "linux", "goarch": "amd64", "gomaxprocs": 1, "scale": 2,
  "benchmarks": [
    {"name": "Deduce/sequential", "ns_per_op": 90000000, "bytes_per_op": 4096, "allocs_per_op": 10}
  ]
}`)
	reports := []*Report{oldR, fresh}
	regs := Gate(reports, regexp.MustCompile(`^(Deduce|IncDeduce)/`), 1000)
	if len(regs) != 1 || regs[0].Arm != "Deduce/parallel" || !regs[0].Missing {
		t.Fatalf("Gate = %v, want Deduce/parallel reported missing", regs)
	}
	if s := regs[0].String(); !strings.Contains(s, "missing") {
		t.Errorf("Regression.String() = %q, want it to say the arm is missing", s)
	}
	// Partition/w8 is missing too, but outside the tier.
	if regs := Gate(reports, regexp.MustCompile(`^Deduce/sequential$`), 0); len(regs) != 0 {
		t.Errorf("Gate(Deduce/sequential) = %v, want none", regs)
	}
}

// TestGateRepoTrajectory runs the gate over the repo's real BENCH
// trajectory when the files are present — the same invocation ci.sh
// makes, proving the lowered-threshold exit path against real data.
func TestGateRepoTrajectory(t *testing.T) {
	var reports []*Report
	for _, name := range []string{"BENCH_6.json", "BENCH_7.json"} {
		path := filepath.Join("..", "..", name)
		if _, err := os.Stat(path); err != nil {
			t.Skipf("repo trajectory file %s not present", name)
		}
		r, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	}
	var sb strings.Builder
	WriteTables(&sb, reports)
	if !strings.Contains(sb.String(), "Deduce/sequential") {
		t.Errorf("repo trajectory tables missing Deduce/sequential:\n%s", sb.String())
	}
	// BENCH_6 → BENCH_7 improved Deduce; with threshold -100 every
	// comparable arm "regresses", so the gate must report a nonempty set.
	if regs := Gate(reports, regexp.MustCompile(`^Deduce/`), -100); len(regs) == 0 {
		t.Error("artificially lowered threshold produced no regressions on real reports")
	}
}
