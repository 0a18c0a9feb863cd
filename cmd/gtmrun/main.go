// Command gtmrun trains a GTM on a sample of synthetic PubChem-like
// chemical descriptors and interpolates out-of-sample shards (apps.GTM)
// through one of the three execution frameworks; the trained model is
// the job's shared data.
//
// Usage:
//
//	gtmrun -shards 8 -points 2000 -backend dryadlinq
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gtm"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gtmrun: ")
	var (
		nShards = flag.Int("shards", 6, "number of out-of-sample shards")
		points  = flag.Int("points", 1500, "points per shard")
		sample  = flag.Int("sample", 400, "training sample size")
		backend = flag.String("backend", "classic-cloud", "classic-cloud | hadoop-mapreduce | dryadlinq")
		seed    = flag.Int64("seed", 13, "workload seed")
	)
	flag.Parse()

	// Train the seed model (the paper's "pre-processed subset ... used as
	// the seed for the GTM Interpolation").
	train := workload.ChemicalPoints(*seed, *sample, 4)
	model, err := gtm.Train(train, workload.PubChemDims, gtm.Config{
		LatentGridSize: 8, BasisGridSize: 3, MaxIter: 15, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained GTM: K=%d latent points, beta=%.4f, logL=%.1f\n",
		model.K(), model.Beta, model.LogL[len(model.LogL)-1])
	blob, err := model.Marshal()
	if err != nil {
		log.Fatal(err)
	}

	files := make(map[string][]byte, *nShards)
	for i := 0; i < *nShards; i++ {
		pts := workload.ChemicalPoints(*seed+int64(i)+1, *points, 4)
		shard, err := gtm.EncodeShard(pts, workload.PubChemDims)
		if err != nil {
			log.Fatal(err)
		}
		files[fmt.Sprintf("shard%03d.bin", i)] = shard
	}

	runner, err := core.NewRunner(*backend, 4)
	if err != nil {
		log.Fatal(err)
	}
	res, err := runner.Run(apps.GTM(), files, map[string][]byte{"model.gtm": blob})
	if err != nil {
		log.Fatal(err)
	}
	embedded := 0
	for _, out := range res.Outputs {
		coords, err := gtm.DecodeEmbedding(out)
		if err != nil {
			log.Fatal(err)
		}
		embedded += len(coords) / gtm.LatentDims
	}
	fmt.Printf("backend=%s shards=%d points embedded=%d elapsed=%v\n",
		res.Backend, len(files), embedded, res.Elapsed)
	res.WriteDetail(os.Stdout)
}
