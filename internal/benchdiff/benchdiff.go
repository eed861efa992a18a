// Package benchdiff reads the repo's BENCH_*.json trajectory and turns
// it into something a human — and CI — can act on: per-arm trend tables
// across any number of reports (ns/op, B/op, allocs/op, and peak RSS for
// the storage arms), header-mismatch warnings (comparing a gomaxprocs=1
// report against an 8-core one is noise, not signal), and a regression
// gate that fails when a named tier of arms slows down beyond a
// threshold between the first and last report.
package benchdiff

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Arm is one benchmark row of a report.
type Arm struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

// MemArm is one storage-arm row of a report.
type MemArm struct {
	Name          string  `json:"name"`
	BytesPerTuple float64 `json:"bytes_per_tuple"`
	PeakRSSBytes  int64   `json:"peak_rss_bytes"`
}

// Report is the subset of a BENCH_*.json document benchdiff reads.
type Report struct {
	Path string `json:"-"` // where it was loaded from

	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"` // 0 in reports older than BENCH_8
	Scale      float64 `json:"scale"`
	Repeat     int     `json:"repeat"`
	Tuples     int     `json:"tuples"`

	Benchmarks []Arm    `json:"benchmarks"`
	Memory     []MemArm `json:"memory"`
}

// Load reads one report from disk.
func Load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Report{Path: path}
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Label is the short column header of a report: the file base name
// without extension (BENCH_7.json → BENCH_7).
func (r *Report) Label() string {
	base := filepath.Base(r.Path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

func (r *Report) arm(name string) *Arm {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name == name {
			return &r.Benchmarks[i]
		}
	}
	return nil
}

// HeaderWarnings compares the environment headers of consecutive reports
// and returns one human-readable warning per mismatch that would make
// their timings incomparable: a different scheduler width (gomaxprocs),
// core count, OS/arch, or workload scale.
func HeaderWarnings(reports []*Report) []string {
	var out []string
	warn := func(a, b *Report, field string, av, bv any) {
		out = append(out, fmt.Sprintf("%s vs %s: %s differs (%v vs %v) — timings are not comparable",
			a.Label(), b.Label(), field, av, bv))
	}
	for i := 1; i < len(reports); i++ {
		a, b := reports[i-1], reports[i]
		if a.GOMAXPROCS != b.GOMAXPROCS {
			warn(a, b, "gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
		}
		// NumCPU is absent (0) in reports predating BENCH_8; only warn
		// when both sides recorded it.
		if a.NumCPU != 0 && b.NumCPU != 0 && a.NumCPU != b.NumCPU {
			warn(a, b, "numcpu", a.NumCPU, b.NumCPU)
		}
		if a.GOOS != b.GOOS || a.GOARCH != b.GOARCH {
			warn(a, b, "goos/goarch", a.GOOS+"/"+a.GOARCH, b.GOOS+"/"+b.GOARCH)
		}
		if a.Scale != b.Scale {
			warn(a, b, "scale", a.Scale, b.Scale)
		}
	}
	return out
}

// armNames returns the union of arm names across the reports, in the
// order of first appearance (the oldest report's ordering dominates).
func armNames(reports []*Report) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range reports {
		for _, a := range r.Benchmarks {
			if !seen[a.Name] {
				seen[a.Name] = true
				names = append(names, a.Name)
			}
		}
	}
	return names
}

func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// pctDelta returns (new-old)/old in percent; 0 when old is 0.
func pctDelta(old, new int64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * float64(new-old) / float64(old)
}

// writeTable renders one metric's trajectory: a row per arm, a column
// per report, and a trailing delta column (first → last).
func writeTable(w io.Writer, title string, reports []*Report, value func(*Arm) (int64, bool), format func(int64) string) {
	names := armNames(reports)
	rows := 0
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-34s", title)
	for _, r := range reports {
		fmt.Fprintf(&sb, " %12s", r.Label())
	}
	fmt.Fprintf(&sb, " %9s\n", "Δ%")
	for _, name := range names {
		var cells []string
		var first, last int64
		haveFirst, haveLast := false, false
		for _, r := range reports {
			a := r.arm(name)
			if a == nil {
				cells = append(cells, "-")
				continue
			}
			v, ok := value(a)
			if !ok {
				cells = append(cells, "-")
				continue
			}
			if !haveFirst {
				first, haveFirst = v, true
			}
			last, haveLast = v, true
			cells = append(cells, format(v))
		}
		if !haveLast {
			continue
		}
		rows++
		fmt.Fprintf(&sb, "%-34s", name)
		for _, c := range cells {
			fmt.Fprintf(&sb, " %12s", c)
		}
		if haveFirst && first != last {
			fmt.Fprintf(&sb, " %+8.1f%%", pctDelta(first, last))
		}
		sb.WriteByte('\n')
	}
	if rows > 0 {
		io.WriteString(w, sb.String())
		io.WriteString(w, "\n")
	}
}

// WriteTables prints the per-arm trajectory tables (ns/op, B/op,
// allocs/op, and peak RSS where the reports carry storage arms) for the
// given reports, oldest first.
func WriteTables(w io.Writer, reports []*Report) {
	writeTable(w, "ns/op", reports, func(a *Arm) (int64, bool) { return a.NsPerOp, a.NsPerOp != 0 }, fmtNs)
	writeTable(w, "B/op", reports, func(a *Arm) (int64, bool) { return a.BytesPerOp, a.BytesPerOp != 0 }, fmtBytes)
	writeTable(w, "allocs/op", reports,
		func(a *Arm) (int64, bool) { return a.AllocsPerOp, a.AllocsPerOp != 0 },
		func(v int64) string { return fmt.Sprintf("%d", v) })

	// Peak RSS rides the memory rows, which have their own name space.
	type memRow struct{ vals []string }
	names := map[string]bool{}
	var order []string
	for _, r := range reports {
		for _, m := range r.Memory {
			if !names[m.Name] {
				names[m.Name] = true
				order = append(order, m.Name)
			}
		}
	}
	if len(order) == 0 {
		return
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-34s", "peak RSS")
	for _, r := range reports {
		fmt.Fprintf(&sb, " %12s", r.Label())
	}
	sb.WriteByte('\n')
	rows := 0
	for _, name := range order {
		any := false
		var cells []string
		for _, r := range reports {
			cell := "-"
			for _, m := range r.Memory {
				if m.Name == name && m.PeakRSSBytes > 0 {
					cell = fmtBytes(m.PeakRSSBytes)
					any = true
				}
			}
			cells = append(cells, cell)
		}
		if !any {
			continue
		}
		rows++
		fmt.Fprintf(&sb, "%-34s", name)
		for _, c := range cells {
			fmt.Fprintf(&sb, " %12s", c)
		}
		sb.WriteByte('\n')
	}
	if rows > 0 {
		io.WriteString(w, sb.String())
		io.WriteString(w, "\n")
	}
}

// Regression is one gated arm that slowed down beyond the threshold, or
// that the fresh report does not measure at all (Missing; DeltaPct is
// then +Inf, so it sorts first).
type Regression struct {
	Arm      string
	OldNs    int64
	NewNs    int64
	DeltaPct float64
	Missing  bool
}

func (r Regression) String() string {
	if r.Missing {
		return fmt.Sprintf("%s: %s -> missing from the fresh report", r.Arm, fmtNs(r.OldNs))
	}
	return fmt.Sprintf("%s: %s -> %s (%+.1f%%)", r.Arm, fmtNs(r.OldNs), fmtNs(r.NewNs), r.DeltaPct)
}

// Gate compares the first and last report's ns/op for every arm matching
// tier and returns the arms that regressed by more than thresholdPct.
// A gated arm the first report measured but the last one does not is a
// regression too: a gate that silently skips an arm that stopped being
// measured gates nothing. Arms only the last report has are skipped.
func Gate(reports []*Report, tier *regexp.Regexp, thresholdPct float64) []Regression {
	if len(reports) < 2 {
		return nil
	}
	oldR, newR := reports[0], reports[len(reports)-1]
	var out []Regression
	for _, name := range armNames([]*Report{oldR}) {
		if !tier.MatchString(name) {
			continue
		}
		oa, na := oldR.arm(name), newR.arm(name)
		if oa == nil || oa.NsPerOp == 0 {
			continue
		}
		if na == nil || na.NsPerOp == 0 {
			out = append(out, Regression{Arm: name, OldNs: oa.NsPerOp, DeltaPct: math.Inf(1), Missing: true})
			continue
		}
		if d := pctDelta(oa.NsPerOp, na.NsPerOp); d > thresholdPct {
			out = append(out, Regression{Arm: name, OldNs: oa.NsPerOp, NewNs: na.NsPerOp, DeltaPct: d})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DeltaPct > out[j].DeltaPct })
	return out
}
