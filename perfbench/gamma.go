package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"dcer"
)

// canonicalGamma renders Γ keyed by (relation, id): one line per match
// class with its members sorted, classes sorted by first member, then one
// line per validated ML prediction. Two runs over the same inputs give
// the same bytes whatever tuple ids their loaders assigned.
func canonicalGamma(d *dcer.Dataset, classes [][]dcer.TID, validated []dcer.Fact) []byte {
	lines := make([]string, 0, len(classes)+len(validated))
	for _, c := range classes {
		keys := make([]string, len(c))
		for i, gid := range c {
			keys[i] = tupleKey(d, gid)
		}
		sort.Strings(keys)
		lines = append(lines, strings.Join(keys, " "))
	}
	sort.Strings(lines)
	ml := make([]string, len(validated))
	for i, f := range validated {
		p := pairKey(tupleKey(d, f.A), tupleKey(d, f.B))
		ml[i] = "ml " + f.Model + " " + p[0] + " " + p[1]
	}
	sort.Strings(ml)
	var b bytes.Buffer
	for _, l := range append(lines, ml...) {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// checkGamma compares a run's canonical Γ with the reference and names
// the first line where they part.
func checkGamma(got, ref []byte) error {
	if bytes.Equal(got, ref) {
		return nil
	}
	g, r := strings.Split(string(got), "\n"), strings.Split(string(ref), "\n")
	for i := 0; i < len(g) && i < len(r); i++ {
		if g[i] != r[i] {
			return fmt.Errorf("Γ differs from the reference at line %d: got %q, want %q", i+1, g[i], r[i])
		}
	}
	return fmt.Errorf("Γ differs from the reference: %d lines, want %d", len(g)-1, len(r)-1)
}

// counts are the predicted and true duplicate pairs of one or more Γs.
type counts struct{ tp, predicted, truth int }

func (c counts) add(o counts) counts {
	return counts{c.tp + o.tp, c.predicted + o.predicted, c.truth + o.truth}
}

func (c counts) precision() float64 { return ratio(float64(c.tp), float64(c.predicted)) }
func (c counts) recall() float64    { return ratio(float64(c.tp), float64(c.truth)) }

// accuracy counts the pairs of a canonical Γ's match classes against the
// planted truth: every pair inside a class is a predicted duplicate.
func accuracy(canon []byte, truth map[[2]string]bool) counts {
	c := counts{truth: len(truth)}
	for _, line := range strings.Split(string(canon), "\n") {
		if line == "" || strings.HasPrefix(line, "ml ") {
			continue
		}
		m := strings.Split(line, " ")
		for i := range m {
			for j := i + 1; j < len(m); j++ {
				c.predicted++
				if truth[pairKey(m[i], m[j])] {
					c.tp++
				}
			}
		}
	}
	return c
}
