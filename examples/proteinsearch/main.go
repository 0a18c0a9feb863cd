// Protein search: the paper's BLAST workload end to end on the Hadoop
// substrate. An NR-like protein database is built, written out as one
// FASTA document, and distributed to every node through the distributed
// cache (the paper's Hadoop-BLAST design), where the first map task
// indexes it; query files are independent map tasks whose results are
// tabular hit lists.
//
//	go run ./examples/proteinsearch
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/apps"
	"repro/internal/blast"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	// Build the reference database with embedded motifs so some queries
	// have genuine homologs.
	dbRecs, motifs := workload.ProteinDatabase(1, 300, 200, 400, 6, 30)
	nr, err := fasta.MarshalRecords(dbRecs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d sequences (%d KB of FASTA in the distributed cache, indexed once per job)\n",
		len(dbRecs), len(nr)/1024)

	// Query files, 50 queries each (coarse granularity, as in the paper).
	files, err := workload.BlastQueryFileSet(2, 4, 50, motifs, 80)
	if err != nil {
		log.Fatal(err)
	}

	runner := core.MapReduceRunner{Nodes: 4, SlotsPerNode: 2, Speculative: true}
	res, err := runner.Run(apps.Blast(blast.Options{Threads: 2, MaxEValue: 1e-3}), files,
		map[string][]byte{"nr.fsa": nr})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("searched %d query files on %s in %v (locality %s)\n",
		len(res.Outputs), res.Backend, res.Elapsed, res.Detail["locality_fraction"])

	totalHits := 0
	for name, out := range res.Outputs {
		n := strings.Count(string(out), "\n")
		totalHits += n
		fmt.Printf("  %s: %d significant hits\n", name, n)
	}
	if totalHits == 0 {
		log.Fatal("no hits found; motif queries should match the database")
	}
	fmt.Printf("total: %d hits at E ≤ 1e-3\n", totalHits)
}
