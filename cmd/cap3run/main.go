// Command cap3run assembles FASTA fragment files with the Cap3-style
// assembler, optionally distributing the files over one of the three
// execution frameworks.
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
	app := core.FuncApp{
		AppName: "cap3",
		Fn: func(name string, input []byte) ([]byte, error) {
			return cap3.Run(input, cap3.Options{})
		},
	}
	runner, err := pickRunner(*backend, *workers)
	if err != nil {
		log.Fatal(err)
	}
	res, err := runner.Run(app, files)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backend=%s files=%d elapsed=%v\n", res.Backend, len(files), res.Elapsed)
	for k, v := range res.Detail {
		fmt.Printf("  %s=%s\n", k, v)
	}
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

func pickRunner(backend string, workers int) (core.Runner, error) {
	switch backend {
	case "classic-cloud":
		return core.ClassicCloudRunner{Instances: 2, WorkersPerInstance: (workers + 1) / 2}, nil
	case "hadoop-mapreduce":
		return core.MapReduceRunner{Nodes: 2, SlotsPerNode: (workers + 1) / 2}, nil
	case "dryadlinq":
		return core.DryadRunner{Nodes: 2, SlotsPerNode: (workers + 1) / 2}, nil
	}
	return nil, fmt.Errorf("unknown backend %q", backend)
}
