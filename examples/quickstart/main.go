// Quickstart: run a trivial pleasingly parallel application on all three
// execution substrates through the one framework API, and verify every
// backend produces identical outputs.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)

	// The "executable": reverse each input file. Any function of
	// (file name, file bytes) → file bytes works; Open hands it over once
	// the job's shared data (none here) is staged. The real biomedical
	// applications (internal/apps) plug in exactly the same way.
	app := apps.App{Name: "reverse", Open: func(map[string][]byte) (apps.Process, error) {
		return func(name string, input []byte) ([]byte, error) {
			out := make([]byte, len(input))
			for i, b := range input {
				out[len(input)-1-i] = b
			}
			return out, nil
		}, nil
	}}

	// One input file per task, as in the paper's applications.
	files := map[string][]byte{}
	for i := 0; i < 10; i++ {
		files[fmt.Sprintf("doc%02d.txt", i)] = []byte(fmt.Sprintf("contents of document %02d", i))
	}

	// The three substrates the paper compares, behind one interface.
	runners := []core.Runner{
		core.ClassicCloudRunner{Instances: 2, WorkersPerInstance: 2},
		core.MapReduceRunner{Nodes: 3, SlotsPerNode: 2},
		core.DryadRunner{Nodes: 3, SlotsPerNode: 2},
	}

	var reference map[string][]byte
	for _, r := range runners {
		res, err := r.Run(app, files, nil)
		if err != nil {
			log.Fatalf("%s: %v", r.Backend(), err)
		}
		if err := core.Verify(files, res); err != nil {
			log.Fatalf("%s: %v", r.Backend(), err)
		}
		fmt.Printf("%-18s %d files in %v  %v\n", res.Backend, len(res.Outputs), res.Elapsed, res.Detail)
		if reference == nil {
			reference = res.Outputs
			continue
		}
		for name, want := range reference {
			if !bytes.Equal(res.Outputs[name], want) {
				log.Fatalf("%s: output for %s differs between backends", r.Backend(), name)
			}
		}
	}
	fmt.Println("all backends produced identical outputs")
}
