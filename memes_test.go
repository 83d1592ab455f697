package memes

import (
	"context"
	"testing"

	"github.com/memes-pipeline/memes/internal/distance"
	"github.com/memes-pipeline/memes/internal/imaging"
	"github.com/memes-pipeline/memes/internal/phash"
)

// TestPublicAPIEndToEnd exercises the public facade the way a downstream
// user would: generate a corpus, run the pipeline, regenerate a few
// headline results.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := SmallDatasetConfig()
	cfg.NumMemes = 10
	cfg.NoiseImages = map[Community]int{Pol: 100, Twitter: 100}
	cfg.PostsWithoutImages = map[Community]int{Pol: 200}
	ds, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	eng, err := NewEngine(context.Background(), ds, site)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res := eng.Result()
	if len(res.Clusters) == 0 || len(res.Associations) == 0 {
		t.Fatal("pipeline produced no clusters or associations")
	}
	inf, err := EstimateInfluence(res, AllMemes)
	if err != nil {
		t.Fatalf("EstimateInfluence: %v", err)
	}
	if len(inf.Raw) != 5 {
		t.Fatalf("expected a 5x5 influence matrix, got %d rows", len(inf.Raw))
	}
	rep, err := NewReport(res)
	if err != nil {
		t.Fatalf("NewReport: %v", err)
	}
	if text, err := rep.RenderTable2(); err != nil || text == "" {
		t.Fatalf("RenderTable2: %v", err)
	}
}

func TestPublicHashingAndMetric(t *testing.T) {
	img := imaging.Template(1)
	h1, err := HashImage(img)
	if err != nil {
		t.Fatalf("HashImage: %v", err)
	}
	variant := imaging.Variant(img, 5, 0.2)
	h2, err := HashImage(variant)
	if err != nil {
		t.Fatalf("HashImage variant: %v", err)
	}
	if d := phash.Distance(h1, h2); d > 12 {
		t.Errorf("variant hash distance %d unexpectedly large", d)
	}
	m, err := NewMetric()
	if err != nil {
		t.Fatalf("NewMetric: %v", err)
	}
	a := distance.ClusterFeatures{MedoidHash: h1, Memes: []string{"pepe"}, Annotated: true}
	b := distance.ClusterFeatures{MedoidHash: h2, Memes: []string{"pepe"}, Annotated: true}
	if d := m.Distance(a, b); d > 0.3 {
		t.Errorf("same-meme near-identical clusters have distance %v", d)
	}
}

func TestPublicScreenshotClassifier(t *testing.T) {
	if testing.Short() {
		t.Skip("classifier training skipped in -short mode")
	}
	exp, err := TrainScreenshotClassifier()
	if err != nil {
		t.Fatalf("TrainScreenshotClassifier: %v", err)
	}
	if exp.Evaluation.AUC < 0.85 {
		t.Errorf("classifier AUC %v too low", exp.Evaluation.AUC)
	}
	shot := imaging.Screenshot(1, 96, 160)
	meme := imaging.Template(2)
	shotPred := IsScreenshot(exp.Classifier, shot)
	memePred := IsScreenshot(exp.Classifier, meme)
	if !shotPred && memePred {
		t.Errorf("classifier confuses screenshots and memes: shot=%v meme=%v", shotPred, memePred)
	}
}
