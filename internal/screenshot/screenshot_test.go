package screenshot

import (
	"image"
	"math"
	"math/rand"
	"testing"

	"github.com/memes-pipeline/memes/internal/imaging"
)

func TestFeaturesShapeAndRange(t *testing.T) {
	imgs := []image.Image{
		imaging.Template(1),
		imaging.Screenshot(2, 96, 160),
		imaging.TemplateSized(3, 48, 80),
	}
	for _, img := range imgs {
		f := Features(img)
		if len(f) != NumFeatures {
			t.Fatalf("feature vector length %d, want %d", len(f), NumFeatures)
		}
		for i, v := range f {
			if math.IsNaN(v) || v < 0 || v > 1.5 {
				t.Fatalf("feature %d out of range: %v", i, v)
			}
		}
	}
}

func TestFeaturesEmptyImage(t *testing.T) {
	f := Features(image.NewRGBA(image.Rect(0, 0, 0, 0)))
	if len(f) != NumFeatures {
		t.Fatalf("empty image features length %d", len(f))
	}
	for _, v := range f {
		if v != 0 {
			t.Fatal("empty image should produce zero features")
		}
	}
}

func TestFeaturesDiscriminative(t *testing.T) {
	// Background dominance (feature 0) should on average be higher for
	// screenshots than for memes.
	var sDom, mDom float64
	const n = 15
	for i := 0; i < n; i++ {
		sDom += Features(imaging.Screenshot(int64(i), 96, 140))[0]
		mDom += Features(imaging.Template(int64(i)))[0]
	}
	if sDom <= mDom {
		t.Fatalf("screenshot dominance %v should exceed meme dominance %v", sDom/n, mDom/n)
	}
}

func TestTrainConfigValidate(t *testing.T) {
	if err := DefaultTrainConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []TrainConfig{
		{HiddenUnits: 0, Epochs: 1, LearningRate: 0.1},
		{HiddenUnits: 4, Epochs: 0, LearningRate: 0.1},
		{HiddenUnits: 4, Epochs: 1, LearningRate: 0},
		{HiddenUnits: 4, Epochs: 1, LearningRate: 0.1, Dropout: 1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
}

func TestTrainInputValidation(t *testing.T) {
	cfg := DefaultTrainConfig()
	if _, err := Train(nil, nil, cfg); err == nil {
		t.Fatal("empty training set should fail")
	}
	if _, err := Train([][]float64{{1, 2}}, []bool{true, false}, cfg); err == nil {
		t.Fatal("misaligned labels should fail")
	}
	if _, err := Train([][]float64{{1, 2}, {1}}, []bool{true, false}, cfg); err == nil {
		t.Fatal("ragged features should fail")
	}
}

func TestTrainLearnsLinearlySeparableData(t *testing.T) {
	// Simple synthetic task: label = (x0 + x1 > 1).
	rng := rand.New(rand.NewSource(5))
	var feats [][]float64
	var labels []bool
	for i := 0; i < 400; i++ {
		x0, x1 := rng.Float64(), rng.Float64()
		feats = append(feats, []float64{x0, x1})
		labels = append(labels, x0+x1 > 1)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 100
	clf, err := Train(feats, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range feats {
		if clf.Predict(feats[i]) == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(feats)); acc < 0.9 {
		t.Fatalf("training accuracy %v too low", acc)
	}
	// Wrong-dimension input returns probability 0 rather than panicking.
	if p := clf.Probability([]float64{1}); p != 0 {
		t.Fatalf("wrong-dimension probability = %v, want 0", p)
	}
}

func TestEvaluateMetrics(t *testing.T) {
	// Hand-computable confusion matrix: 3 TP, 1 FP, 1 FN, 5 TN.
	probs := []float64{0.9, 0.8, 0.7, 0.6, 0.4, 0.3, 0.2, 0.2, 0.1, 0.1}
	labels := []bool{true, true, true, false, true, false, false, false, false, false}
	ev, err := Evaluate(probs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.Accuracy-0.8) > 1e-12 {
		t.Errorf("accuracy = %v, want 0.8", ev.Accuracy)
	}
	if math.Abs(ev.Precision-0.75) > 1e-12 {
		t.Errorf("precision = %v, want 0.75", ev.Precision)
	}
	if math.Abs(ev.Recall-0.75) > 1e-12 {
		t.Errorf("recall = %v, want 0.75", ev.Recall)
	}
	if math.Abs(ev.F1-0.75) > 1e-12 {
		t.Errorf("F1 = %v, want 0.75", ev.F1)
	}
	if ev.AUC < 0.8 || ev.AUC > 1 {
		t.Errorf("AUC = %v implausible", ev.AUC)
	}
	if len(ev.ROC.FPR) != len(ev.ROC.TPR) || len(ev.ROC.FPR) < 2 {
		t.Errorf("malformed ROC curve")
	}
	// ROC must start at (0,0) and end at (1,1).
	last := len(ev.ROC.FPR) - 1
	if ev.ROC.FPR[0] != 0 || ev.ROC.TPR[0] != 0 || ev.ROC.FPR[last] != 1 || ev.ROC.TPR[last] != 1 {
		t.Errorf("ROC endpoints wrong: %+v", ev.ROC)
	}
}

func TestEvaluatePerfectAndRandom(t *testing.T) {
	// Perfect separation: AUC = 1.
	probs := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	ev, err := Evaluate(probs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ev.AUC != 1 || ev.Accuracy != 1 {
		t.Fatalf("perfect classifier metrics wrong: %+v", ev)
	}
	// Single-class data degenerates gracefully.
	ev2, err := Evaluate([]float64{0.6, 0.7}, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if ev2.AUC != 0.5 {
		t.Fatalf("single-class AUC = %v, want 0.5", ev2.AUC)
	}
	if _, err := Evaluate(nil, nil); err == nil {
		t.Fatal("empty evaluation should fail")
	}
	if _, err := Evaluate([]float64{0.5}, []bool{true, false}); err == nil {
		t.Fatal("misaligned evaluation should fail")
	}
}

func TestPaperCountsComposition(t *testing.T) {
	counts := PaperCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	// The paper's corpus has 39,451 images across the six sources.
	if total != 39451 {
		t.Fatalf("paper corpus total = %d, want 39451", total)
	}
	if counts[SourceTwitter] != 14602 {
		t.Fatalf("twitter count = %d", counts[SourceTwitter])
	}
}

func TestCorpusConfigValidate(t *testing.T) {
	if err := DefaultCorpusConfig().Validate(); err != nil {
		t.Fatalf("default corpus config invalid: %v", err)
	}
	bad := []CorpusConfig{
		{},
		{Counts: map[Source]int{SourceOther: -1}, ImageSize: 64},
		{Counts: map[Source]int{SourceOther: 0}, ImageSize: 64},
		{Counts: map[Source]int{SourceOther: 10}, ImageSize: 4},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
}

func TestBuildCorpusComposition(t *testing.T) {
	cfg := CorpusConfig{
		Counts:    map[Source]int{SourceTwitter: 20, SourceOther: 30},
		ImageSize: 64,
		Seed:      3,
	}
	corpus, err := BuildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus.Examples) != 50 {
		t.Fatalf("corpus size %d, want 50", len(corpus.Examples))
	}
	screenshots := 0
	for _, ex := range corpus.Examples {
		if ex.Label != (ex.Source != SourceOther) {
			t.Fatal("label does not match source")
		}
		if ex.Label {
			screenshots++
		}
		if len(ex.Features) != NumFeatures {
			t.Fatal("bad feature length")
		}
	}
	if screenshots != 20 {
		t.Fatalf("screenshot count %d, want 20", screenshots)
	}
}

func TestCorpusSplit(t *testing.T) {
	cfg := CorpusConfig{Counts: map[Source]int{SourceTwitter: 10, SourceOther: 10}, ImageSize: 64, Seed: 1}
	corpus, err := BuildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := corpus.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != 16 || len(test) != 4 {
		t.Fatalf("split sizes %d/%d", len(train), len(test))
	}
	if _, _, err := corpus.Split(0); err == nil {
		t.Fatal("zero train fraction should fail")
	}
	if _, _, err := corpus.Split(1); err == nil {
		t.Fatal("unit train fraction should fail")
	}
}

func TestRunExperimentReproducesPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping classifier experiment in -short mode")
	}
	cfg := DefaultCorpusConfig()
	// Shrink further for test speed while keeping both classes populated.
	for s, n := range cfg.Counts {
		cfg.Counts[s] = n / 4
		if cfg.Counts[s] < 10 {
			cfg.Counts[s] = 10
		}
	}
	res, err := RunExperiment(cfg, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports AUC 0.96 and accuracy 91.3%; the synthetic corpus is
	// easier, so we only require that the classifier is clearly better than
	// chance and in the same high-performance regime.
	if res.Evaluation.AUC < 0.85 {
		t.Errorf("AUC %v too low (paper: 0.96)", res.Evaluation.AUC)
	}
	if res.Evaluation.Accuracy < 0.8 {
		t.Errorf("accuracy %v too low (paper: 0.913)", res.Evaluation.Accuracy)
	}
	if res.TrainSize == 0 || res.TestSize == 0 {
		t.Error("empty train/test partitions")
	}
}

func TestFilterGallery(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping classifier experiment in -short mode")
	}
	cfg := DefaultCorpusConfig()
	for s, n := range cfg.Counts {
		cfg.Counts[s] = n / 4
		if cfg.Counts[s] < 10 {
			cfg.Counts[s] = 10
		}
	}
	res, err := RunExperiment(cfg, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Filter a small gallery, 5 memes and 5 screenshots, the way Step 4
	// filters a KYM gallery: keep what the classifier does not judge a
	// screenshot.
	var gallery []image.Image
	for i := 0; i < 5; i++ {
		gallery = append(gallery, imaging.Template(int64(1000+i)))
	}
	for i := 0; i < 5; i++ {
		gallery = append(gallery, imaging.Screenshot(int64(2000+i), 96, 150))
	}
	var keep []int
	for i, img := range gallery {
		if !res.Classifier.Predict(Features(img)) {
			keep = append(keep, i)
		}
	}
	// Most of the kept images should be from the meme half.
	memeKept := 0
	for _, idx := range keep {
		if idx < 5 {
			memeKept++
		}
	}
	if len(keep) == 0 || memeKept < len(keep)/2 {
		t.Fatalf("gallery filtering looks wrong: kept %v", keep)
	}
}
