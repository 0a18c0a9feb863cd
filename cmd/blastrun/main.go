// Command blastrun searches protein query files against a synthetic
// NR-like database with the BLAST-style engine (apps.Blast), distributing
// the query files over one of the three execution frameworks. The
// database is the job's shared data: one FASTA document, staged the
// chosen framework's way and indexed once when the application opens.
//
// Usage:
//
//	blastrun -queries 4 -dbsize 500 -backend hadoop-mapreduce
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/apps"
	"repro/internal/blast"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("blastrun: ")
	var (
		nQueries = flag.Int("queries", 4, "number of query files (100 queries each)")
		dbSize   = flag.Int("dbsize", 400, "database sequences")
		backend  = flag.String("backend", "classic-cloud", "classic-cloud | hadoop-mapreduce | dryadlinq")
		seed     = flag.Int64("seed", 7, "workload seed")
	)
	flag.Parse()

	dbRecs, motifs := workload.ProteinDatabase(*seed, *dbSize, 200, 400, 8, 30)
	nr, err := fasta.MarshalRecords(dbRecs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d sequences, %d KB of FASTA staged to every worker\n", len(dbRecs), len(nr)/1024)

	files, err := workload.BlastQueryFileSet(*seed+1, *nQueries, 100, motifs, 80)
	if err != nil {
		log.Fatal(err)
	}
	runner, err := core.NewRunner(*backend, 4)
	if err != nil {
		log.Fatal(err)
	}
	res, err := runner.Run(apps.Blast(blast.Options{Threads: 1}), files, map[string][]byte{"nr.fsa": nr})
	if err != nil {
		log.Fatal(err)
	}
	hits := 0
	for _, out := range res.Outputs {
		hits += strings.Count(string(out), "\n")
	}
	fmt.Printf("backend=%s files=%d hits=%d elapsed=%v\n", res.Backend, len(files), hits, res.Elapsed)
	res.WriteDetail(os.Stdout)
}
