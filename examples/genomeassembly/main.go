// Genome assembly: the paper's Cap3 workload end to end. A synthetic
// genome is shredded into noisy shotgun reads split across FASTA files;
// the Classic Cloud framework distributes the files to queue-fed
// workers, each of which runs the Cap3-style assembler (apps.Cap3); the
// example then verifies the assembled contigs against the reference
// genome.
//
//	go run ./examples/genomeassembly
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/cap3"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	// Each input file holds reads from its own genome region — the
	// "collection of gene sequence fragments presented as FASTA files".
	const (
		nFiles       = 6
		readsPerFile = 150
		genomeLen    = 6000
	)
	files := make(map[string][]byte, nFiles)
	genomes := make(map[string][]byte, nFiles)
	for i := 0; i < nFiles; i++ {
		name := fmt.Sprintf("region%02d.fsa", i)
		genome := workload.Genome(int64(100+i), genomeLen)
		reads := workload.ShotgunReads(int64(200+i), genome, readsPerFile, workload.DefaultShotgun())
		doc, err := fasta.MarshalRecords(reads)
		if err != nil {
			log.Fatal(err)
		}
		files[name] = doc
		genomes[name] = genome
	}

	runner := core.ClassicCloudRunner{Instances: 3, WorkersPerInstance: 2}
	res, err := runner.Run(apps.Cap3(cap3.Options{}), files, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assembled %d files on %s in %v\n", len(res.Outputs), res.Backend, res.Elapsed)

	// Validate: the longest contig of each file must recover most of its
	// source genome region.
	for name, out := range res.Outputs {
		contigs, err := fasta.ParseBytes(out)
		if err != nil {
			log.Fatalf("%s: unparsable assembler output: %v", name, err)
		}
		longest := 0
		for _, c := range contigs {
			if c.Len() > longest {
				longest = c.Len()
			}
		}
		frac := float64(longest) / float64(len(genomes[name]))
		fmt.Printf("  %s: %d contigs, longest %d bases (%.0f%% of region)\n",
			name, len(contigs), longest, 100*frac)
		if frac < 0.5 {
			log.Fatalf("%s: assembly too fragmented", name)
		}
	}
	fmt.Println("all regions assembled successfully")
}
