package pipeline

import (
	"context"
	"image"
	"testing"

	"github.com/memes-pipeline/memes/internal/cluster"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/imaging"
	"github.com/memes-pipeline/memes/internal/phash"
)

// sharedRun caches a pipeline run over the small synthetic corpus; the tests
// only read from it.
var sharedRun *Result

func getRun(t *testing.T) *Result {
	t.Helper()
	if sharedRun != nil {
		return sharedRun
	}
	ds, err := dataset.Generate(dataset.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	res, err := Run(ds, site, DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sharedRun = res
	return res
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Clustering: cluster.DBSCANConfig{Eps: -1, MinPts: 5}},
		{Clustering: cluster.DefaultDBSCANConfig(), AnnotationThreshold: 99},
		{Clustering: cluster.DefaultDBSCANConfig(), AssociationThreshold: -1},
		{Clustering: cluster.DefaultDBSCANConfig(), Workers: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
}

func TestRunInputValidation(t *testing.T) {
	if _, err := Run(nil, nil, DefaultConfig()); err == nil {
		t.Fatal("nil inputs should be rejected")
	}
	ds, err := dataset.Generate(func() dataset.Config {
		c := dataset.SmallConfig()
		c.NumMemes = 3
		c.NoiseImages = map[dataset.Community]int{dataset.Pol: 10}
		c.PostsWithoutImages = nil
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	site, err := ds.Site(true)
	if err != nil {
		t.Fatal(err)
	}
	badCfg := DefaultConfig()
	badCfg.AnnotationThreshold = 200
	if _, err := Run(ds, site, badCfg); err == nil {
		t.Fatal("invalid config should be rejected")
	}
}

func TestRunClustersFringeCommunitiesOnly(t *testing.T) {
	res := getRun(t)
	if len(res.PerCommunity) != 3 {
		t.Fatalf("expected 3 fringe communities, got %d", len(res.PerCommunity))
	}
	for comm := range res.PerCommunity {
		if !comm.Fringe() {
			t.Fatalf("mainstream community %v was clustered", comm)
		}
	}
	for _, c := range res.Clusters {
		if !c.Community.Fringe() {
			t.Fatalf("cluster %d from mainstream community %v", c.ID, c.Community)
		}
	}
}

func TestRunRecoversPlantedMemes(t *testing.T) {
	res := getRun(t)
	if len(res.Clusters) == 0 {
		t.Fatal("no clusters found")
	}
	annotated := res.AnnotatedClusters()
	if len(annotated) == 0 {
		t.Fatal("no annotated clusters")
	}
	// /pol/ must have clusters (it posts the most memes), and the majority of
	// planted memes should be represented by at least one annotated cluster
	// whose representative entry matches the meme's ground-truth entry.
	pol := res.PerCommunity[dataset.Pol]
	if pol.Clusters == 0 {
		t.Fatal("no clusters on /pol/")
	}
	entryByMeme := make(map[int]string)
	for _, m := range res.Dataset.Memes {
		entryByMeme[m.Index] = m.EntryName
	}
	// Map each cluster's most common ground-truth meme to its annotation.
	correct, checked := 0, 0
	for _, ci := range annotated {
		c := res.Clusters[ci]
		// Find the dominant planted meme among the posts matching this
		// cluster's medoid hash exactly.
		memeVotes := map[int]int{}
		for _, p := range res.Dataset.Posts {
			if p.HasImage && p.Community == c.Community && p.PHash() == c.MedoidHash && p.TruthMeme >= 0 {
				memeVotes[p.TruthMeme]++
			}
		}
		bestMeme, bestVotes := -1, 0
		for m, v := range memeVotes {
			if v > bestVotes {
				bestMeme, bestVotes = m, v
			}
		}
		if bestMeme < 0 {
			continue
		}
		checked++
		want := entryByMeme[bestMeme]
		for _, m := range c.Annotation.Matches {
			if m.Entry.Name == want {
				correct++
				break
			}
		}
	}
	if checked == 0 {
		t.Fatal("no clusters could be checked against ground truth")
	}
	if frac := float64(correct) / float64(checked); frac < 0.8 {
		t.Fatalf("annotation accuracy %v too low (%d/%d)", frac, correct, checked)
	}
}

func TestRunNoiseFractionPlausible(t *testing.T) {
	res := getRun(t)
	for comm, summary := range res.PerCommunity {
		if summary.Images == 0 {
			continue
		}
		nf := summary.NoiseFraction()
		if nf < 0.02 || nf > 0.95 {
			t.Errorf("%v noise fraction %v implausible", comm, nf)
		}
		if summary.Annotated > summary.Clusters {
			t.Errorf("%v has more annotated clusters than clusters", comm)
		}
	}
}

func TestRunAssociations(t *testing.T) {
	res := getRun(t)
	if len(res.Associations) == 0 {
		t.Fatal("no associations produced")
	}
	communitiesSeen := map[dataset.Community]bool{}
	for _, a := range res.Associations {
		if a.PostIndex < 0 || a.PostIndex >= len(res.Dataset.Posts) {
			t.Fatal("association post index out of range")
		}
		if a.ClusterID < 0 || a.ClusterID >= len(res.Clusters) {
			t.Fatal("association cluster out of range")
		}
		if !res.Clusters[a.ClusterID].Annotated() {
			t.Fatal("association to an unannotated cluster")
		}
		if a.Distance < 0 || a.Distance > res.Config.AssociationThreshold {
			t.Fatalf("association distance %d outside threshold", a.Distance)
		}
		post := res.Dataset.Posts[a.PostIndex]
		if !post.HasImage {
			t.Fatal("association to a post without an image")
		}
		communitiesSeen[post.Community] = true
		// The association must indeed be within the threshold of the medoid.
		d := phash.Distance(post.PHash(), res.Clusters[a.ClusterID].MedoidHash)
		if d != a.Distance {
			t.Fatal("recorded distance does not match recomputed distance")
		}
	}
	// Mainstream communities (Twitter, Reddit) must also receive
	// associations — that is the whole point of Step 6.
	if !communitiesSeen[dataset.Twitter] || !communitiesSeen[dataset.Reddit] {
		t.Fatalf("mainstream communities missing from associations: %v", communitiesSeen)
	}
	// Associations must be sorted by post index and unique per post.
	seen := map[int]bool{}
	prev := -1
	for _, a := range res.Associations {
		if a.PostIndex < prev {
			t.Fatal("associations not sorted")
		}
		prev = a.PostIndex
		if seen[a.PostIndex] {
			t.Fatal("post associated more than once")
		}
		seen[a.PostIndex] = true
	}
}

func TestRunAssociationRecoversGroundTruthMemes(t *testing.T) {
	res := getRun(t)
	// For associated posts that carry a ground-truth meme, the representative
	// entry of the matched cluster should usually be the meme's entry.
	entryByMeme := make(map[int]string)
	for _, m := range res.Dataset.Memes {
		entryByMeme[m.Index] = m.EntryName
	}
	correct, total := 0, 0
	for _, a := range res.Associations {
		post := res.Dataset.Posts[a.PostIndex]
		if post.TruthMeme < 0 {
			continue
		}
		total++
		want := entryByMeme[post.TruthMeme]
		for _, m := range res.Clusters[a.ClusterID].Annotation.Matches {
			if m.Entry.Name == want {
				correct++
				break
			}
		}
	}
	if total == 0 {
		t.Fatal("no ground-truth posts associated")
	}
	if frac := float64(correct) / float64(total); frac < 0.75 {
		t.Fatalf("association accuracy %v too low (%d/%d)", frac, correct, total)
	}
}

func TestClusterInfoFeatures(t *testing.T) {
	res := getRun(t)
	for _, ci := range res.AnnotatedClusters() {
		c := res.Clusters[ci]
		f := c.Features()
		if f.MedoidHash != c.MedoidHash {
			t.Fatal("features medoid mismatch")
		}
		if !f.Annotated {
			t.Fatal("annotated cluster features not marked annotated")
		}
		if c.EntryName() == "" {
			t.Fatal("annotated cluster without entry name")
		}
	}
}

func TestHashImages(t *testing.T) {
	imgs := []image.Image{imaging.Template(1), imaging.Template(2), imaging.Template(3)}
	hashes, err := HashImagesCtx(context.Background(), imgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hashes) != 3 {
		t.Fatalf("expected 3 hashes, got %d", len(hashes))
	}
	direct, _ := phash.FromImage(imgs[1])
	if hashes[1] != direct {
		t.Fatal("parallel hashing disagrees with direct hashing")
	}
	if _, err := HashImagesCtx(context.Background(), []image.Image{nil}, 1); err == nil {
		t.Fatal("nil image should produce an error")
	}
	empty, err := HashImagesCtx(context.Background(), nil, 0)
	if err != nil || len(empty) != 0 {
		t.Fatal("empty input should produce an empty result")
	}
}
