// Package apps defines the paper's application contract — "an
// executable program that takes input in the form of a file", plus the
// reference data every worker stages before its first file — and the
// three biomedical applications written against it, each exactly once.
// Every runtime (core's three runners, the broker's registry) opens an
// App the same way: shared data in, the per-file function out.
//
// The package imports the science kernels and nothing of the runtimes,
// so the broker can import it without linking MapReduce, HDFS or Dryad.
package apps

import (
	"fmt"
	"sort"

	"repro/internal/blast"
	"repro/internal/cap3"
	"repro/internal/fasta"
	"repro/internal/gtm"
)

// Process transforms one input file into one output file. It must be
// safe for concurrent calls and idempotent: every runtime may run a file
// more than once.
type Process func(name string, input []byte) ([]byte, error)

// App is an application as data. Name identifies it in queue, bucket
// and path names; Open turns the job's shared data (named reference
// blobs, empty for an application that needs none) into the per-file
// function. A runtime stages the shared data its own way and calls Open
// once per job, before any file is processed.
type App struct {
	Name string
	Open func(shared map[string][]byte) (Process, error)
}

// Cap3 assembles FASTA shotgun reads into contigs. No shared data.
func Cap3(opt cap3.Options) App {
	return App{Name: "cap3", Open: func(map[string][]byte) (Process, error) {
		return func(_ string, input []byte) ([]byte, error) { return cap3.Run(input, opt) }, nil
	}}
}

// Blast searches query files against a protein database and writes
// tabular hit reports. The shared data is the database: one or more
// FASTA documents, concatenated in name order.
func Blast(opt blast.Options) App {
	return App{Name: "blast", Open: func(shared map[string][]byte) (Process, error) {
		names := make([]string, 0, len(shared))
		for name := range shared {
			names = append(names, name)
		}
		sort.Strings(names)
		var seqs []*fasta.Record
		for _, name := range names {
			recs, err := fasta.ParseBytes(shared[name])
			if err != nil {
				return nil, fmt.Errorf("apps: blast database %s: %w", name, err)
			}
			seqs = append(seqs, recs...)
		}
		if len(seqs) == 0 {
			return nil, fmt.Errorf("apps: blast needs a shared FASTA database")
		}
		db := blast.NewDatabase(seqs)
		return func(_ string, input []byte) ([]byte, error) { return blast.Run(input, db, opt) }, nil
	}}
}

// GTM interpolates encoded point shards into the latent space of a
// trained model. The shared data is exactly one Marshal()ed model.
func GTM() App {
	return App{Name: "gtm", Open: func(shared map[string][]byte) (Process, error) {
		if len(shared) != 1 {
			return nil, fmt.Errorf("apps: gtm needs exactly one shared model, got %d", len(shared))
		}
		var model *gtm.Model
		for name, data := range shared {
			var err error
			if model, err = gtm.UnmarshalModel(data); err != nil {
				return nil, fmt.Errorf("apps: gtm model %s: %w", name, err)
			}
		}
		return func(_ string, input []byte) ([]byte, error) { return gtm.Run(model, input) }, nil
	}}
}
