// Phylogeny: explore the relationships between meme variants with the custom
// distance metric of Section 2.3 — the Figure 6 dendrogram over a meme
// family and the Figure 7 cluster graph.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/analysis"
)

func main() {
	ds, err := memes.GenerateDataset(memes.SmallDatasetConfig())
	if err != nil {
		log.Fatalf("generating dataset: %v", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		log.Fatalf("building site: %v", err)
	}
	eng, err := memes.NewEngine(context.Background(), ds, site)
	if err != nil {
		log.Fatalf("building engine: %v", err)
	}
	res := eng.Result()
	metric, err := memes.NewMetric()
	if err != nil {
		log.Fatalf("building metric: %v", err)
	}

	// Figure 6: hierarchical clustering of the "frog" meme family.
	dend, err := analysis.MemeFamilyDendrogram(res, metric, []string{"frog", "pepe", "apu"})
	if err != nil {
		log.Fatalf("building dendrogram: %v", err)
	}
	fmt.Printf("frog family: %d clusters across /pol/, The Donald, and Gab\n", dend.Dendrogram.NumLeaves())
	for _, cut := range []float64{0.2, 0.45, 0.7} {
		labels := dend.Dendrogram.Cut(cut)
		distinct := map[int]bool{}
		for _, l := range labels {
			distinct[l] = true
		}
		fmt.Printf("  cutting the dendrogram at %.2f yields %d groups\n", cut, len(distinct))
	}
	fmt.Println("  sample leaves:", dend.Leaves[:min(6, len(dend.Leaves))])

	// Figure 7: the cluster graph at distance threshold 0.45.
	cfg := analysis.DefaultClusterGraphConfig()
	cfg.Layout = true // lay the graph out as Figure 7 draws it
	g, err := analysis.BuildClusterGraph(res, metric, cfg)
	if err != nil {
		log.Fatalf("building graph: %v", err)
	}
	comps := g.ConnectedComponents()
	purity := g.ComponentPurity()
	mean := 0.0
	for _, p := range purity {
		mean += p
	}
	if len(purity) > 0 {
		mean /= float64(len(purity))
	}
	fmt.Printf("cluster graph: %d nodes, %d edges, %d connected components, mean purity %.2f\n",
		len(g.Nodes), len(g.Edges), len(comps), mean)
	fmt.Println("(a high purity means each component is dominated by a single meme, the Figure 7 observation)")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
