package apps

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/blast"
	"repro/internal/fasta"
	"repro/internal/gtm"
	"repro/internal/workload"
)

// (That an opened application is its kernel, byte for byte, is the root
// package's TestEveryApplicationOnEveryRuntime.)

func trainedModel(t *testing.T) []byte {
	t.Helper()
	model, err := gtm.Train(workload.ChemicalPoints(3, 120, 3), workload.PubChemDims, gtm.Config{
		LatentGridSize: 4, BasisGridSize: 2, MaxIter: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := model.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// BLAST joins its database documents in name order, whatever order the
// map yields them in.
func TestBlastJoinsDocumentsInNameOrder(t *testing.T) {
	dbRecs, motifs := workload.ProteinDatabase(7, 30, 100, 200, 2, 24)
	queries, err := workload.BlastQueryFile(8, 6, motifs, 60)
	if err != nil {
		t.Fatal(err)
	}
	shared := map[string][]byte{}
	for i, part := range [][]*fasta.Record{dbRecs[:10], dbRecs[10:20], dbRecs[20:]} {
		if shared[string(rune('a'+i))], err = fasta.MarshalRecords(part); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := fasta.MarshalRecords(dbRecs)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i, shared := range []map[string][]byte{{"nr": whole}, shared, shared, shared, shared} {
		process, err := Blast(blast.Options{}).Open(shared)
		if err != nil {
			t.Fatal(err)
		}
		got, err := process("q", queries)
		if err != nil || len(got) == 0 {
			t.Fatalf("open %d: %d bytes, err %v", i, len(got), err)
		}
		if i == 0 {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("open %d: output differs from the single-document database", i)
		}
	}
}

func TestOpenRejectsBadSharedData(t *testing.T) {
	model := trainedModel(t)
	for _, c := range []struct {
		name    string
		app     App
		shared  map[string][]byte
		mention string
	}{
		{"blast with no database", Blast(blast.Options{}), nil, "database"},
		{"blast with an empty database", Blast(blast.Options{}), map[string][]byte{"nr": nil}, "database"},
		{"blast with a database that is not FASTA", Blast(blast.Options{}), map[string][]byte{"nr": []byte("ACDE\n")}, "nr"},
		{"gtm with no model", GTM(), nil, "got 0"},
		{"gtm with two models", GTM(), map[string][]byte{"a": model, "b": model}, "got 2"},
		{"gtm with a corrupt model", GTM(), map[string][]byte{"m": model[:len(model)/2]}, "model m"},
	} {
		process, err := c.app.Open(c.shared)
		if err == nil || process != nil {
			t.Errorf("%s: opened", c.name)
		} else if !strings.Contains(err.Error(), c.mention) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.mention)
		}
	}
}
