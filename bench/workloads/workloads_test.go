package workloads

import (
	"bytes"
	"testing"
)

// The same seed gives byte-identical inputs; another seed gives others.
func TestSeedDeterminism(t *testing.T) {
	for _, spec := range All() {
		a, err := spec.Generate(7, true)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		b, err := spec.Generate(7, true)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		c, err := spec.Generate(8, true)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: seed 7 gave digests %s and %s", spec.Name, a.Digest, b.Digest)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", spec.Name, a.Digest)
		}
		if a.Tasks == 0 || a.Tasks != b.Tasks {
			t.Errorf("%s: %d and %d tasks", spec.Name, a.Tasks, b.Tasks)
		}
		for i, j := range a.Jobs {
			for name, data := range j.Files {
				if !bytes.Equal(data, b.Jobs[i].Files[name]) {
					t.Errorf("%s: file %s differs between two generations of one seed", spec.Name, name)
				}
			}
		}
	}
}

// The shared tiny files are one definition: the durable, ephemeral and
// restart workloads see the same bytes, so their ratio isolates the
// stack.
func TestTinyWorkloadsShareInputs(t *testing.T) {
	digests := map[string]string{}
	for _, name := range []string{"tiny_durable", "tiny_ephemeral", "restart_recover"} {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		in, err := spec.Generate(3, true)
		if err != nil {
			t.Fatal(err)
		}
		digests[name] = in.Digest
	}
	if digests["tiny_durable"] != digests["tiny_ephemeral"] || digests["tiny_durable"] != digests["restart_recover"] {
		t.Errorf("tiny workloads differ: %v", digests)
	}
}

// Reference outputs come from the kernels and are what Matches accepts;
// a corrupted output is rejected, for cap3 too.
func TestReferenceAndMatches(t *testing.T) {
	for _, spec := range All() {
		in, err := spec.Generate(5, true)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Reference(in)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for ji, j := range in.Jobs {
			if len(ref[ji]) != len(j.Files) {
				t.Fatalf("%s/%s: %d reference outputs for %d files", spec.Name, j.App, len(ref[ji]), len(j.Files))
			}
			for name, want := range ref[ji] {
				if ok, exact := Matches(j.App, want, want); !ok || !exact {
					t.Errorf("%s/%s: reference does not match itself", spec.Name, name)
				}
				bad := append(append([]byte(nil), want...), 'X')
				if ok, _ := Matches(j.App, bad, want); ok {
					t.Errorf("%s/%s: corrupted output accepted", spec.Name, name)
				}
			}
		}
	}
	// cap3's run-stable form: contig order and names may differ, the
	// contigs themselves may not.
	a := []byte(">Contig1 reads=2 length=4\nACGT\n>Contig2 reads=3 length=4\nTTTT\n; 1 singletons\n")
	b := []byte(">Contig1 reads=3 length=4\nAAAA\n>Contig2 reads=2 length=4\nACGT\n; 1 singletons\n")
	if ok, exact := Matches("cap3", a, b); !ok || exact {
		t.Errorf("reordered contigs: ok=%v exact=%v, want canonical match", ok, exact)
	}
	c := []byte(">Contig1 reads=9 length=4\nACGT\n>Contig2 reads=3 length=4\nTTTT\n; 1 singletons\n")
	if ok, _ := Matches("cap3", c, a); ok {
		t.Error("different contig membership accepted")
	}
	if ok, _ := Matches("blast", a, b); ok {
		t.Error("non-cap3 apps must compare byte for byte")
	}
}
