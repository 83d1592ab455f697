// Command memepipeline runs the processing pipeline (Steps 1-6) over a
// corpus written by memegen and prints the clustering and association
// summary.
//
// Usage:
//
//	memepipeline -in ./corpus [-eps 8] [-theta 8] [-workers N] [-index bktree|multiindex|sharded]
//	             [-save engine.snap] [-load engine.snap] [-format text|json] [-graph graph.json]
//
// With -format text (the default) the summary goes to stdout and the timing
// to stderr, so stdout stays a reproducible report. With -format json one
// JSON document carrying the full clustering/association summary plus the
// run stats is written to stdout.
//
// -save writes the built engine (Steps 2-5 output) as a versioned binary
// snapshot; -load reconstitutes the engine from such a snapshot instead of
// building, so only Step 6 runs — build once on a big box, serve the
// snapshot anywhere. With -load the clustering flags (-eps, -theta) are
// ignored: the snapshot's build configuration is authoritative.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/analysis"
	"github.com/memes-pipeline/memes/internal/cli"
	"github.com/memes-pipeline/memes/internal/distance"
)

func main() {
	in := flag.String("in", "corpus", "input corpus directory (written by memegen)")
	eps := flag.Int("eps", 8, "DBSCAN clustering threshold")
	theta := flag.Int("theta", 8, "annotation/association Hamming threshold")
	workers := flag.Int("workers", 0, "worker pool size for every pipeline stage (0 = GOMAXPROCS)")
	indexStrategy := flag.String("index", "", "medoid index strategy (empty = multiindex, the default): "+strategyList())
	savePath := flag.String("save", "", "write the built engine snapshot to this file")
	loadPath := flag.String("load", "", "load the engine from this snapshot instead of building (skips Steps 2-5)")
	format := flag.String("format", "text", "output format: text or json")
	graphOut := flag.String("graph", "", "optional path to write the Figure 7 cluster graph as JSON")
	flag.Parse()
	if *format != "text" && *format != "json" {
		log.Fatalf("unknown -format %q (want text or json)", *format)
	}
	if *savePath != "" && *loadPath != "" {
		log.Fatal("-save and -load are mutually exclusive (a loaded engine would re-save the same snapshot)")
	}

	ds, err := memes.LoadDataset(*in)
	if err != nil {
		log.Fatalf("loading corpus: %v", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		log.Fatalf("building annotation site: %v", err)
	}

	var eng *memes.Engine
	if *loadPath != "" {
		opts := []memes.Option{memes.WithDataset(ds), memes.WithWorkers(*workers)}
		if *indexStrategy != "" {
			opts = append(opts, memes.WithIndex(memes.IndexStrategy(*indexStrategy)))
		}
		f, err := os.Open(*loadPath)
		if err != nil {
			log.Fatalf("opening snapshot: %v", err)
		}
		eng, err = memes.LoadEngine(f, site, opts...)
		f.Close()
		if err != nil {
			log.Fatalf("loading engine snapshot: %v", err)
		}
		fmt.Fprintf(os.Stderr, "loaded engine from %s (%d clusters) — Steps 2-5 skipped\n",
			*loadPath, len(eng.Clusters()))
	} else {
		eng, err = memes.NewEngine(context.Background(), ds, site,
			memes.WithEps(*eps),
			memes.WithAnnotationThreshold(*theta),
			memes.WithAssociationThreshold(*theta),
			memes.WithWorkers(*workers),
			memes.WithIndex(memes.IndexStrategy(*indexStrategy)))
		if err != nil {
			log.Fatalf("building engine: %v", err)
		}
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			log.Fatalf("creating snapshot file: %v", err)
		}
		if err := eng.Save(f); err != nil {
			log.Fatalf("writing snapshot: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("closing snapshot file: %v", err)
		}
		if st, err := os.Stat(*savePath); err == nil {
			fmt.Fprintf(os.Stderr, "wrote engine snapshot (%d bytes) to %s\n", st.Size(), *savePath)
		}
	}
	res := eng.Result()

	switch *format {
	case "json":
		if err := json.NewEncoder(os.Stdout).Encode(summaryDoc(res)); err != nil {
			log.Fatalf("encoding summary: %v", err)
		}
	case "text":
		// Timing goes to stderr so stdout stays a reproducible summary.
		fmt.Fprintln(os.Stderr, res.Stats)
		fmt.Println("Clustering (Table 2):")
		for _, row := range analysis.ClusteringStats(res) {
			fmt.Printf("  %-12s images=%-7d noise=%.0f%% clusters=%-5d annotated=%d (%.0f%%)\n",
				row.Community, row.Images, row.NoisePercent, row.Clusters, row.Annotated, row.AnnotatedPerc)
		}
		fmt.Printf("Associations (Step 6): %d posts matched to annotated clusters\n", len(res.Associations))
		for _, row := range analysis.EventCounts(res) {
			fmt.Printf("  %-12s %d\n", row.Community, row.Events)
		}
	}

	if *graphOut != "" {
		cfg := analysis.DefaultClusterGraphConfig()
		cfg.Layout = true // the exported JSON carries node coordinates
		g, err := analysis.BuildClusterGraph(res, distance.New(), cfg)
		if err != nil {
			log.Fatalf("building cluster graph: %v", err)
		}
		data, err := g.JSON()
		if err != nil {
			log.Fatalf("encoding graph: %v", err)
		}
		if err := os.WriteFile(*graphOut, data, 0o644); err != nil {
			log.Fatalf("writing graph: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote cluster graph (%d nodes, %d edges) to %s\n",
			len(g.Nodes), len(g.Edges), *graphOut)
	}
}

// strategyList renders the registered index strategies for the -index flag
// help text.
func strategyList() string {
	var names []string
	for _, s := range memes.IndexStrategies() {
		names = append(names, string(s))
	}
	return strings.Join(names, ", ")
}

// The JSON document mirrors the text summary (clustering rows, association
// counts) and adds the run stats, so one machine-readable object carries
// everything a CI pipeline or dashboard needs.

type clusteringJSON struct {
	Community        string  `json:"community"`
	Images           int     `json:"images"`
	NoisePercent     float64 `json:"noise_percent"`
	Clusters         int     `json:"clusters"`
	Annotated        int     `json:"annotated"`
	AnnotatedPercent float64 `json:"annotated_percent"`
}

type eventsJSON struct {
	Community string `json:"community"`
	Events    int    `json:"events"`
}

type summaryJSON struct {
	Clustering   []clusteringJSON `json:"clustering"`
	Associations int              `json:"associations"`
	Events       []eventsJSON     `json:"events"`
	Stats        cli.StatsJSON    `json:"stats"`
}

func summaryDoc(res *memes.Result) summaryJSON {
	// Slice fields start non-nil so the JSON contract is always an array,
	// never null, even on corpora that produce no rows.
	doc := summaryJSON{
		Clustering:   []clusteringJSON{},
		Events:       []eventsJSON{},
		Associations: len(res.Associations),
	}
	for _, row := range analysis.ClusteringStats(res) {
		doc.Clustering = append(doc.Clustering, clusteringJSON{
			Community:        row.Community,
			Images:           row.Images,
			NoisePercent:     row.NoisePercent,
			Clusters:         row.Clusters,
			Annotated:        row.Annotated,
			AnnotatedPercent: row.AnnotatedPerc,
		})
	}
	for _, row := range analysis.EventCounts(res) {
		doc.Events = append(doc.Events, eventsJSON{Community: row.Community, Events: row.Events})
	}
	doc.Stats = cli.StatsDoc(res.Stats)
	return doc
}
