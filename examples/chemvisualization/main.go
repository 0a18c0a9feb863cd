// Chemical-structure visualization: the paper's GTM Interpolation
// workload end to end on the DryadLINQ substrate. A GTM is trained on a
// small sample of 166-dimensional chemical descriptors (the PubChem
// stand-in); the trained model — the shared data of apps.GTM — is
// manually distributed to the node-local shared directories;
// out-of-sample shards are interpolated through the Select operator;
// finally the example renders a coarse ASCII density map of the 2-D
// embedding.
//
//	go run ./examples/chemvisualization
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gtm"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	// Train on the sample (the compute-intensive step done once).
	train := workload.ChemicalPoints(5, 500, 3)
	model, err := gtm.Train(train, workload.PubChemDims, gtm.Config{
		LatentGridSize: 10, BasisGridSize: 4, MaxIter: 20, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained GTM on %d samples: final log-likelihood %.1f\n",
		500, model.LogL[len(model.LogL)-1])
	blob, err := model.Marshal()
	if err != nil {
		log.Fatal(err)
	}

	// Out-of-sample shards: interpolation is pleasingly parallel on
	// point boundaries.
	const shards, perShard = 8, 1000
	files := make(map[string][]byte, shards)
	for i := 0; i < shards; i++ {
		pts := workload.ChemicalPoints(int64(50+i), perShard, 3)
		enc, err := gtm.EncodeShard(pts, workload.PubChemDims)
		if err != nil {
			log.Fatal(err)
		}
		files[fmt.Sprintf("pubchem%03d.bin", i)] = enc
	}

	runner := core.DryadRunner{Nodes: 4, SlotsPerNode: 2}
	res, err := runner.Run(apps.GTM(), files, map[string][]byte{"model": blob})
	if err != nil {
		log.Fatal(err)
	}

	// Merge the shard outputs (a "simple merging operation", Section 6)
	// and render a density map of the latent square.
	const grid = 24
	var density [grid][grid]int
	total := 0
	for _, out := range res.Outputs {
		coords, err := gtm.DecodeEmbedding(out)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i+1 < len(coords); i += 2 {
			x := int((coords[i] + 1) / 2 * (grid - 1))
			y := int((coords[i+1] + 1) / 2 * (grid - 1))
			density[y][x]++
			total++
		}
	}
	fmt.Printf("interpolated %d points across %d shards on %s in %v (imbalance %s)\n",
		total, shards, res.Backend, res.Elapsed, res.Detail["imbalance"])
	fmt.Println("latent-space density ('.' sparse → '#' dense):")
	shades := []byte(" .:-=+*#")
	max := 1
	for y := 0; y < grid; y++ {
		for x := 0; x < grid; x++ {
			if density[y][x] > max {
				max = density[y][x]
			}
		}
	}
	for y := 0; y < grid; y++ {
		row := make([]byte, grid)
		for x := 0; x < grid; x++ {
			idx := density[y][x] * (len(shades) - 1) / max
			row[x] = shades[idx]
		}
		fmt.Printf("  |%s|\n", row)
	}
}
