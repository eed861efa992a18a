package mqo_test

import (
	"math"
	"strings"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/mqo"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// exampleRules builds the three-rule sharing scenario of the paper's
// Example 4: φ1 joins R-S, φ2 joins R-T and φ3 joins T-P, all via the same
// crossed equality pattern, so φ1/φ2 share the R-side hash functions and
// φ2/φ3 the T-side ones.
func exampleRules(t *testing.T) (*relation.Database, []*rule.Rule) {
	t.Helper()
	str := relation.TypeString
	a := func(n string) relation.Attribute { return relation.Attribute{Name: n, Type: str} }
	db := relation.MustDatabase(
		relation.MustSchema("R", "id", a("id"), a("A"), a("B")),
		relation.MustSchema("S", "id", a("id"), a("A"), a("B")),
		relation.MustSchema("T", "id", a("id"), a("A"), a("B")),
		relation.MustSchema("P", "id", a("id"), a("A"), a("B")),
	)
	rules, err := rule.ParseResolved(`
phi1: R(t1) ^ S(t2) ^ t1.B = t2.A ^ t2.B = t1.A -> t1.id = t2.id
phi2: R(t3) ^ T(t4) ^ t3.B = t4.A ^ t4.B = t3.A -> t3.id = t4.id
phi3: T(t5) ^ P(t6) ^ t5.B = t6.A ^ t6.B = t5.A -> t5.id = t6.id
`, db)
	if err != nil {
		t.Fatal(err)
	}
	return db, rules
}

func TestBuildSharing(t *testing.T) {
	_, rules := exampleRules(t)
	shared, err := mqo.Build(rules, true)
	if err != nil {
		t.Fatal(err)
	}
	private, err := mqo.Build(rules, false)
	if err != nil {
		t.Fatal(err)
	}
	if shared.NumHashFns >= private.NumHashFns {
		t.Errorf("sharing uses %d fns, no-sharing %d — no saving",
			shared.NumHashFns, private.NumHashFns)
	}
	used, baseline := shared.Savings()
	if used >= baseline {
		t.Errorf("Savings() = %d/%d", used, baseline)
	}
	if !strings.Contains(shared.String(), "mqo plan") {
		t.Error("String() malformed")
	}
}

// TestExample4HashFunctionCount mirrors the paper's count: the three rules
// have 12 distinct variables but need only 6 hash functions with sharing.
func TestExample4HashFunctionCount(t *testing.T) {
	_, rules := exampleRules(t)
	plan, err := mqo.Build(rules, true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalDVs != 12 {
		t.Errorf("total distinct variables = %d, want 12 (4 per rule)", plan.TotalDVs)
	}
	if plan.NumHashFns != 6 {
		t.Errorf("hash functions = %d, want 6 as in Example 4", plan.NumHashFns)
	}
}

func TestSharedSidesGetSameFunction(t *testing.T) {
	_, rules := exampleRules(t)
	plan, err := mqo.Build(rules, true)
	if err != nil {
		t.Fatal(err)
	}
	// φ1 and φ2 share the R-side equality classes: the class containing
	// R.B (= partner .A) must carry the same hash fn in both assignments.
	fnOf := func(ra *mqo.RuleAssignment, varIdx, attr int) int {
		for ci, dv := range ra.DVs {
			for _, m := range dv.Members {
				if m.Var == varIdx && m.Attr == attr {
					return ra.HashFn[ci]
				}
			}
		}
		return -1
	}
	// R is variable 0 in both rules; attribute B is index 2.
	f1 := fnOf(plan.Assignments[0], 0, 2)
	f2 := fnOf(plan.Assignments[1], 0, 2)
	if f1 < 0 || f1 != f2 {
		t.Errorf("R.B hash fn differs across φ1/φ2: %d vs %d", f1, f2)
	}
}

func TestOrderByScore(t *testing.T) {
	db := datagen.PaperSchemas()
	rules, err := datagen.PaperRules(db)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mqo.Build(rules, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Order) != len(rules) {
		t.Fatalf("order length %d", len(plan.Order))
	}
	// φ1 shares phone/addr predicates with φ3 and φ4, so it must come
	// before the unshared φ2 (mirrors the paper's Example 5 O_r).
	pos := map[string]int{}
	for i, ri := range plan.Order {
		pos[plan.Assignments[ri].Rule.Name] = i
	}
	if pos["phi1"] > pos["phi2"] {
		t.Errorf("O_r puts phi1 after phi2: %v", pos)
	}
}

func TestDimOrderSortedByFn(t *testing.T) {
	_, rules := exampleRules(t)
	plan, err := mqo.Build(rules, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, ra := range plan.Assignments {
		last := -1
		for _, di := range ra.DimOrder {
			if ra.HashFn[di] < last {
				t.Errorf("%s: DimOrder not sorted by hash fn", ra.Rule.Name)
			}
			last = ra.HashFn[di]
		}
	}
}

func TestHasherMemoization(t *testing.T) {
	h := mqo.NewHasher()
	v := relation.S("hello")
	a := h.Hash(3, v)
	b := h.Hash(3, v)
	if a != b {
		t.Error("hash not deterministic")
	}
	if h.Computations != 1 || h.Lookups != 2 {
		t.Errorf("memo stats = %d/%d", h.Computations, h.Lookups)
	}
	if h.Hash(4, v) == a {
		t.Log("different fns collided (allowed but suspicious)")
	}
	if h.Computations != 2 {
		t.Error("different fn should compute")
	}
}

// TestWordHasherMatchesHasher checks the column hasher against the value
// hasher on every column type, -0 and NaN included: the same hash per
// tuple, and per function the same number of computations.
func TestWordHasherMatchesHasher(t *testing.T) {
	db := relation.MustDatabase(relation.MustSchema("R", "id",
		relation.Attribute{Name: "id", Type: relation.TypeString},
		relation.Attribute{Name: "n", Type: relation.TypeInt},
		relation.Attribute{Name: "f", Type: relation.TypeFloat}))
	d := relation.NewDataset(db)
	floats := []float64{1.5, math.Copysign(0, -1), 0, math.NaN(), 1.5, math.NaN()}
	for i, f := range floats {
		d.MustAppend("R", relation.S([]string{"a", "b", "a"}[i%3]), relation.I(int64(i%4)), relation.F(f))
	}
	rel := d.Relation("R")
	var wh mqo.WordHasher
	for fn := 0; fn < 2; fn++ {
		vh := mqo.NewHasher()
		wh.Use(fn)
		before := wh.Computations
		for attr := 0; attr < 3; attr++ {
			out := make([]uint32, len(rel.Tuples))
			wh.HashColumn(rel, attr, out)
			for i, tu := range rel.Tuples {
				if want := vh.Hash(fn, tu.Val(attr)); out[i] != want {
					t.Errorf("fn %d attr %d row %d: word hash %d, value hash %d", fn, attr, i, out[i], want)
				}
			}
		}
		if got := wh.Computations - before; got != vh.Computations {
			t.Errorf("fn %d: %d word computations, %d value computations", fn, got, vh.Computations)
		}
	}
}

func TestDot(t *testing.T) {
	_, rules := exampleRules(t)
	plan, err := mqo.Build(rules, true)
	if err != nil {
		t.Fatal(err)
	}
	dot := plan.Dot()
	for _, want := range []string{"digraph mqo", "phi1", "phi2", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot() missing %q:\n%s", want, dot)
		}
	}
}
