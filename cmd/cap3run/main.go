// Command cap3run assembles FASTA fragment files with the Cap3-style
// assembler (apps.Cap3), distributing the files over one of the three
// execution frameworks (core.NewRunner), or assembles one file in place.
//
// Usage:
//
//	cap3run -files 8 -reads 200 -backend classic-cloud
//	cap3run -in reads.fsa            # assemble one real file from disk
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/apps"
	"repro/internal/cap3"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cap3run: ")
	var (
		inFile  = flag.String("in", "", "assemble a single FASTA file from disk")
		nFiles  = flag.Int("files", 8, "number of synthetic input files")
		reads   = flag.Int("reads", 200, "reads per synthetic file")
		backend = flag.String("backend", "classic-cloud", "classic-cloud | hadoop-mapreduce | dryadlinq")
		workers = flag.Int("workers", 4, "total workers / slots")
		seed    = flag.Int64("seed", 42, "workload seed")
	)
	flag.Parse()

	if *inFile != "" {
		data, err := os.ReadFile(*inFile)
		if err != nil {
			log.Fatal(err)
		}
		out, err := cap3.Run(data, cap3.Options{})
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(out)
		return
	}

	files, err := workload.Cap3FileSet(*seed, *nFiles, *reads, 20000, 0)
	if err != nil {
		log.Fatal(err)
	}
	runner, err := core.NewRunner(*backend, *workers)
	if err != nil {
		log.Fatal(err)
	}
	res, err := runner.Run(apps.Cap3(cap3.Options{}), files, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backend=%s files=%d elapsed=%v\n", res.Backend, len(files), res.Elapsed)
	res.WriteDetail(os.Stdout)
	totalContigs := 0
	for name, out := range res.Outputs {
		n, err := fasta.CountRecords(out)
		if err != nil {
			log.Fatalf("%s: bad output: %v", name, err)
		}
		totalContigs += n
	}
	fmt.Printf("assembled %d contigs across %d files\n", totalContigs, len(res.Outputs))
}
