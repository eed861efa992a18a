package rule_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/rule"
)

// exampleRules extracts the MRL rule constants of the example programs
// (examples/*/main.go, any const whose name mentions rules).
func exampleRules(t testing.TB) []string {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 ||
				!strings.Contains(strings.ToLower(vs.Names[0].Name), "rules") {
				return true
			}
			if lit, ok := vs.Values[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					out = append(out, s)
				}
			}
			return true
		})
	}
	if len(out) == 0 {
		t.Fatal("no rule constants found under examples/")
	}
	return out
}

// FuzzParseRules feeds arbitrary text to the MRL parser, seeded with the
// example programs' rules and the rule files cmd/datagen writes.
// Malformed input must come back as an error, never a panic.
func FuzzParseRules(f *testing.F) {
	for _, s := range exampleRules(f) {
		f.Add(s)
	}
	f.Add(datagen.PaperRulesText)
	f.Add(datagen.TPCH(datagen.TPCHOptions{Scale: 0.01, Dup: 0.3, Seed: 1}).RulesText)
	f.Add(datagen.TFACC(datagen.TFACCOptions{Scale: 0.01, Dup: 0.3, Seed: 1}).RulesText)
	f.Add(datagen.IMDBLike(10, 0.3, 1).RulesText)
	f.Add(datagen.DBLPLike(10, 0.3, 1).RulesText)
	f.Add(datagen.MovieLike(10, 0.3, 1).RulesText)
	f.Add(datagen.SongsLike(10, 0.3, 1).RulesText)
	f.Add("r: R(a) ^ R(b) ^ a.x = b.x ->")
	f.Add("r: R(a ^ -> a.id = b.id")
	f.Fuzz(func(t *testing.T, input string) {
		rules, err := rule.Parse(input)
		if err != nil {
			return
		}
		for i, r := range rules {
			if r == nil {
				t.Fatalf("rule %d of an accepted input is nil", i)
			}
		}
	})
}
