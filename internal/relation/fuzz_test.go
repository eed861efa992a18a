package relation_test

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/relation"
)

// generatedCSVs renders the head of every relation the synthetic
// generators (the inputs cmd/datagen writes) produce, in the typed-header
// CSV layout LoadDir reads.
func generatedCSVs(t testing.TB) [][]byte {
	paper, _ := datagen.PaperExample()
	sets := []*relation.Dataset{
		paper,
		datagen.TPCH(datagen.TPCHOptions{Scale: 0.01, Dup: 0.3, Seed: 1}).D,
		datagen.TFACC(datagen.TFACCOptions{Scale: 0.01, Dup: 0.3, Seed: 1}).D,
		datagen.MovieLike(20, 0.3, 1).D,
		datagen.SongsLike(20, 0.3, 1).D,
	}
	var out [][]byte
	for _, d := range sets {
		for _, rel := range d.Relations {
			var buf bytes.Buffer
			if err := relation.WriteCSV(&buf, rel); err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(buf.String(), "\n")
			out = append(out, []byte(strings.Join(lines[:min(len(lines), 20)], "")))
		}
	}
	return out
}

// FuzzLoadCSV feeds arbitrary bytes through the loader's two steps — the
// typed header into a schema, then the rows into a dataset with
// LoadCSVInto. Malformed input must come back as an error, never a
// panic; accepted input must load every data row.
func FuzzLoadCSV(f *testing.F) {
	for _, b := range generatedCSVs(f) {
		f.Add(b)
	}
	f.Add([]byte("id:int!id,v:float\n1,2.5\nx,3\n"))
	f.Add([]byte("a:nosuchtype\n1\n"))
	f.Add([]byte("a,b\n1\n\"unterminated\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := csv.NewReader(bytes.NewReader(data)).Read()
		if err != nil {
			return
		}
		s, err := relation.ReadCSVSchema("r", rows)
		if err != nil {
			return
		}
		db, err := relation.NewDatabase(s)
		if err != nil {
			return
		}
		d := relation.NewDataset(db)
		if err := relation.LoadCSVInto(d, "r", bytes.NewReader(data)); err != nil {
			return
		}
		cr := csv.NewReader(bytes.NewReader(data))
		cr.FieldsPerRecord = -1
		all, err := cr.ReadAll()
		if err != nil {
			t.Fatalf("loader accepted input the CSV reader rejects: %v", err)
		}
		if got, want := len(d.Relation("r").Tuples), len(all)-1; got != want {
			t.Fatalf("loaded %d tuples from %d data rows", got, want)
		}
	})
}
