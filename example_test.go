package memes_test

import (
	"context"
	"fmt"
	"image"
	"io"
	"log"
	"os"
	"path/filepath"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/analysis"
	"github.com/memes-pipeline/memes/internal/imaging"
)

// buildSmall generates the small synthetic corpus, builds its annotation
// site with screenshots already filtered (Step 4) and runs the build phase
// (Steps 2-5) once.
func buildSmall(opts ...memes.Option) (*memes.Dataset, *memes.AnnotationSite, *memes.Engine) {
	ds, err := memes.GenerateDataset(memes.SmallDatasetConfig())
	if err != nil {
		log.Fatalf("generating dataset: %v", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		log.Fatalf("building annotation site: %v", err)
	}
	eng, err := memes.NewEngine(context.Background(), ds, site, opts...)
	if err != nil {
		log.Fatalf("building engine: %v", err)
	}
	return ds, site, eng
}

// Generate a small corpus, build the pipeline engine once, and print the
// headline numbers: clusters per fringe community, a follow-up batch and a
// single-hash lookup on the resident index, and which community drives the
// meme ecosystem.
func Example() {
	// Stage timings vary run to run; send them to os.Stderr to watch the
	// build.
	var stages io.Writer = io.Discard
	ds, _, eng := buildSmall(memes.WithProgress(func(ev memes.StageEvent) {
		if ev.Done {
			fmt.Fprintf(stages, "stage %-10s %d items in %v\n", ev.Stage, ev.Items, ev.Duration)
		}
	}))
	fmt.Printf("corpus: %d posts, %d planted memes, %d KYM entries\n",
		len(ds.Posts), len(ds.Memes), len(ds.KYMEntries))
	res := eng.Result()

	// The clustering per fringe community, in fixed order.
	for _, comm := range res.Communities() {
		summary := res.PerCommunity[comm]
		fmt.Printf("%-12s %5d images -> %4d clusters (%.0f%% noise, %d annotated)\n",
			comm, summary.Images, summary.Clusters, summary.NoiseFraction()*100, summary.Annotated)
	}
	fmt.Printf("associations: %d posts across all communities matched to memes\n", len(res.Associations))

	// The engine keeps the annotated-cluster index resident, so follow-up
	// queries are cheap: associate a fresh batch (here, the first 100 posts
	// again) and look a single hash up.
	ctx := context.Background()
	batch, err := eng.Associate(ctx, ds.Posts[:100])
	if err != nil {
		log.Fatalf("associating batch: %v", err)
	}
	fmt.Printf("re-associating the first 100 posts: %d matches\n", len(batch))
	post := ds.Posts[res.Associations[0].PostIndex]
	if m, ok, err := eng.Match(ctx, post.PHash()); err == nil && ok {
		fmt.Printf("single-image lookup: cluster %d at distance %d\n", m.ClusterID, m.Distance)
	}

	// Which community drives the meme ecosystem (Section 5).
	inf, err := memes.EstimateInfluence(res, memes.AllMemes)
	if err != nil {
		log.Fatalf("estimating influence: %v", err)
	}
	fmt.Println("normalized external influence (per meme posted):")
	for i, name := range inf.Communities {
		fmt.Printf("  %-12s events=%-6d external=%.2f%%\n", name, inf.Events[i], inf.TotalExternal[i]*100)
	}
	// Output:
	// corpus: 10484 posts, 25 planted memes, 38 KYM entries
	// /pol/         5358 images ->   25 clusters (56% noise, 25 annotated)
	// Gab            231 images ->    4 clusters (81% noise, 4 annotated)
	// The_Donald     625 images ->   10 clusters (69% noise, 10 annotated)
	// associations: 4634 posts across all communities matched to memes
	// re-associating the first 100 posts: 31 matches
	// single-image lookup: cluster 0 at distance 2
	// normalized external influence (per meme posted):
	//   /pol/        events=2358   external=17.58%
	//   Reddit       events=846    external=29.05%
	//   Twitter      events=1124   external=22.18%
	//   Gab          events=81     external=4.93%
	//   The_Donald   events=225    external=40.08%
}

// Reproduce the Section 5 experiment: fit per-meme Hawkes models to the
// cross-community posting events and print the raw influence matrices
// (Figure 11) with each source's total external influence (Figure 12), then
// the racist (Figures 13 and 15) and political (Figures 14 and 16) splits.
func ExampleEstimateInfluence() {
	_, _, eng := buildSmall()
	res := eng.Result()
	for _, g := range []struct {
		title string
		group memes.MemeGroup
	}{
		{"all memes", memes.AllMemes},
		{"racist memes", memes.RacistMemes},
		{"political memes", memes.PoliticalMemes},
	} {
		inf, err := memes.EstimateInfluence(res, g.group)
		if err != nil {
			log.Fatalf("estimating influence: %v", err)
		}
		fmt.Printf("--- %s ---\n", g.title)
		fmt.Printf("%-12s", `src\dst`)
		for _, n := range inf.Communities {
			fmt.Printf("%12s", n)
		}
		fmt.Printf("%12s\n", "Total Ext")
		for i := range inf.Raw {
			fmt.Printf("%-12s", inf.Communities[i])
			for j := range inf.Raw[i] {
				fmt.Printf("%11.1f%%", inf.Raw[i][j]*100)
			}
			fmt.Printf("%11.1f%%\n", inf.TotalExternal[i]*100)
		}
	}
	// Output:
	// --- all memes ---
	// src\dst            /pol/      Reddit     Twitter         Gab  The_Donald   Total Ext
	// /pol/              90.2%       18.8%       15.1%       42.5%       22.8%       17.6%
	// Reddit              3.6%       67.8%        8.1%       18.9%       24.8%       29.1%
	// Twitter             5.0%        9.6%       74.5%       17.2%       15.8%       22.2%
	// Gab                 0.1%        0.1%        0.1%       12.0%        0.4%        4.9%
	// The_Donald          1.1%        3.8%        2.2%        9.4%       36.1%       40.1%
	// --- racist memes ---
	// src\dst            /pol/      Reddit     Twitter         Gab  The_Donald   Total Ext
	// /pol/              91.5%        0.7%        0.1%        0.2%        0.0%        0.3%
	// Reddit              2.8%       83.4%        0.1%        0.5%        0.0%        7.5%
	// Twitter             3.9%       15.9%       99.8%       43.5%        0.0%       32.2%
	// Gab                 1.8%        0.0%        0.0%       55.7%        0.0%       20.8%
	// The_Donald          0.0%        0.0%        0.0%        0.0%        0.0%        0.0%
	// --- political memes ---
	// src\dst            /pol/      Reddit     Twitter         Gab  The_Donald   Total Ext
	// /pol/              92.8%        9.5%       11.5%       64.5%       27.1%       14.0%
	// Reddit              1.0%       78.0%        4.4%        5.7%       29.2%       14.4%
	// Twitter             5.6%       11.9%       82.5%       14.3%       27.0%       29.5%
	// Gab                 0.1%        0.3%        0.4%       15.5%        1.8%       15.0%
	// The_Donald          0.6%        0.3%        1.2%        0.1%       14.9%       13.4%
}

// Explore the relationships between meme variants with the custom distance
// metric of Section 2.3: the Figure 6 dendrogram over a meme family and the
// Figure 7 cluster graph.
func ExampleNewMetric() {
	_, _, eng := buildSmall()
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
		distinct := map[int]bool{}
		for _, l := range dend.Dendrogram.Cut(cut) {
			distinct[l] = true
		}
		fmt.Printf("  cutting the dendrogram at %.2f yields %d groups\n", cut, len(distinct))
	}
	fmt.Println("  sample leaves:", dend.Leaves[:min(6, len(dend.Leaves))])

	// Figure 7: the cluster graph at the default distance threshold.
	g, err := analysis.BuildClusterGraph(res, metric, analysis.DefaultClusterGraphConfig())
	if err != nil {
		log.Fatalf("building graph: %v", err)
	}
	purity := g.ComponentPurity()
	mean := 0.0
	for _, p := range purity {
		mean += p
	}
	if len(purity) > 0 {
		mean /= float64(len(purity))
	}
	fmt.Printf("cluster graph: %d nodes, %d edges, %d connected components, mean purity %.2f\n",
		len(g.Nodes), len(g.Edges), len(g.ConnectedComponents()), mean)
	// Output:
	// frog family: 6 clusters across /pol/, The Donald, and Gab
	//   cutting the dendrogram at 0.20 yields 4 groups
	//   cutting the dendrogram at 0.45 yields 3 groups
	//   cutting the dendrogram at 0.70 yields 2 groups
	//   sample leaves: [4@feels-bad-man-sad-frog 4@feels-bad-man-sad-frog 4@apu-apustaja 4@smug-frog G@smug-frog D@smug-frog]
	// cluster graph: 30 nodes, 48 edges, 8 connected components, mean purity 0.93
}

// Train the Step 4 screenshot classifier on a synthetic corpus, evaluate it
// (the Figure 19 / Appendix C experiment), and use it to filter a mixed
// gallery of five meme images and five screenshots.
func ExampleTrainScreenshotClassifier() {
	exp, err := memes.TrainScreenshotClassifier()
	if err != nil {
		log.Fatalf("training classifier: %v", err)
	}
	ev := exp.Evaluation
	fmt.Printf("screenshot classifier: AUC=%.3f accuracy=%.3f precision=%.3f recall=%.3f F1=%.3f\n",
		ev.AUC, ev.Accuracy, ev.Precision, ev.Recall, ev.F1)

	var gallery []image.Image
	var truth []bool
	for i := range 5 {
		gallery = append(gallery, imaging.Template(int64(100+i)))
		truth = append(truth, false)
	}
	for i := range 5 {
		gallery = append(gallery, imaging.Screenshot(int64(200+i), 128, 200))
		truth = append(truth, true)
	}
	kept, removed, correct := 0, 0, 0
	for i, img := range gallery {
		isShot := memes.IsScreenshot(exp.Classifier, img)
		if isShot {
			removed++
		} else {
			kept++
		}
		if isShot == truth[i] {
			correct++
		}
	}
	fmt.Printf("gallery filtering: kept %d images, removed %d screenshots (%d/%d judged correctly)\n",
		kept, removed, correct, len(gallery))
	// Output:
	// screenshot classifier: AUC=1.000 accuracy=1.000 precision=1.000 recall=1.000 F1=1.000
	// gallery filtering: kept 5 images, removed 5 screenshots (10/10 judged correctly)
}

// The build-once / serve-forever workflow: the expensive Steps 2-5 build
// runs once and is saved as a versioned binary snapshot; a serving process
// loads it, skipping Steps 2-5 entirely, and answers queries identical to
// the original engine's.
func ExampleLoadEngineFile() {
	ctx := context.Background()
	ds, site, eng := buildSmall()
	fmt.Printf("built engine: %d clusters from %d posts\n", len(eng.Clusters()), len(ds.Posts))

	dir, err := os.MkdirTemp("", "memes-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "engine.snap")
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("creating snapshot: %v", err)
	}
	if err := eng.Save(f); err != nil {
		log.Fatalf("saving engine: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("closing snapshot: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %d bytes\n", st.Size())

	// The serving process: load the snapshot with the annotation site. No
	// clustering or annotation runs; the progress stream shows a single
	// "load" stage.
	served, err := memes.LoadEngineFile(path, site,
		memes.WithProgress(func(ev memes.StageEvent) {
			if ev.Done {
				fmt.Printf("stage %q: %d clusters\n", ev.Stage, ev.Items)
			}
		}))
	if err != nil {
		log.Fatalf("loading engine: %v", err)
	}
	defer served.Close()

	batch, err := served.Associate(ctx, ds.Posts[:200])
	if err != nil {
		log.Fatalf("associating: %v", err)
	}
	orig, err := eng.Associate(ctx, ds.Posts[:200])
	if err != nil {
		log.Fatalf("associating on original: %v", err)
	}
	fmt.Printf("served %d associations for 200 posts (original engine: %d)\n", len(batch), len(orig))
	for _, c := range served.Clusters() {
		if c.Annotated() {
			m, ok, err := served.Match(ctx, c.MedoidHash)
			if err != nil || !ok {
				log.Fatalf("match: (%v, %v)", ok, err)
			}
			fmt.Printf("single-image lookup on a medoid: cluster %d (%s) at distance %d\n",
				m.ClusterID, c.EntryName(), m.Distance)
			break
		}
	}
	// Output:
	// built engine: 39 clusters from 10484 posts
	// snapshot: 4372 bytes
	// stage "load": 39 clusters
	// served 68 associations for 200 posts (original engine: 68)
	// single-image lookup on a medoid: cluster 0 (i-know-that-feel-bro) at distance 0
}
