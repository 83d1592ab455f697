package screenshot

import (
	"context"
	"errors"
	"fmt"
	"image"
	"maps"
	"math/rand"
	"slices"

	"github.com/memes-pipeline/memes/internal/imaging"
	"github.com/memes-pipeline/memes/internal/parallel"
)

// Source identifies where a training image came from, mirroring the
// composition of the paper's curated dataset (Appendix C, Table 9).
type Source string

// Screenshot sources and the catch-all "other" class of ordinary images.
const (
	SourceTwitter   Source = "twitter"
	SourceFourChan  Source = "4chan"
	SourceReddit    Source = "reddit"
	SourceFacebook  Source = "facebook"
	SourceInstagram Source = "instagram"
	SourceOther     Source = "other"
)

// PaperCounts returns the per-source image counts of the paper's training
// corpus (Table 9): 14,602 Twitter, 10,127 4chan, 2,181 Reddit,
// 1,414 Facebook, 497 Instagram screenshots plus 10,630 other images.
func PaperCounts() map[Source]int {
	return map[Source]int{
		SourceTwitter:   14602,
		SourceFourChan:  10127,
		SourceReddit:    2181,
		SourceFacebook:  1414,
		SourceInstagram: 497,
		SourceOther:     10630,
	}
}

// CorpusConfig controls synthetic corpus generation.
type CorpusConfig struct {
	// Counts gives the number of images per source. Sources other than
	// SourceOther are rendered as screenshots; SourceOther as meme images.
	Counts map[Source]int
	// ImageSize is the square side of generated images.
	ImageSize int
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultCorpusConfig returns a corpus that is a 1/40 scale model of the
// paper's (Table 9) so the classifier trains in seconds.
func DefaultCorpusConfig() CorpusConfig {
	counts := make(map[Source]int)
	for s, n := range PaperCounts() {
		counts[s] = n / 40
	}
	return CorpusConfig{Counts: counts, ImageSize: 96, Seed: 7}
}

// Validate reports whether the configuration is usable.
func (c CorpusConfig) Validate() error {
	if len(c.Counts) == 0 {
		return errors.New("screenshot: corpus needs at least one source")
	}
	total := 0
	for s, n := range c.Counts {
		if n < 0 {
			return fmt.Errorf("screenshot: negative count for source %q", s)
		}
		total += n
	}
	if total == 0 {
		return errors.New("screenshot: corpus is empty")
	}
	if c.ImageSize < 16 {
		return errors.New("screenshot: image size must be at least 16")
	}
	return nil
}

// Example is a single labelled training example.
type Example struct {
	Features []float64
	Label    bool // true = screenshot
	Source   Source
}

// Corpus is a labelled set of examples plus its per-source composition.
type Corpus struct {
	Examples []Example
	Counts   map[Source]int
}

// BuildCorpus synthesises a labelled corpus: screenshot sources are rendered
// with imaging.Screenshot and the "other" source with imaging.Template plus
// a random variant pass, then features are extracted. The corpus is a
// function of cfg alone: sources are visited in name order, every image's
// seeds are drawn from cfg.Seed's stream in that order, and only then are
// the images rendered and measured, in parallel.
func BuildCorpus(cfg CorpusConfig) (*Corpus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	corpus := &Corpus{Counts: maps.Clone(cfg.Counts)}
	// One job per image: its source and the random draws that define it.
	type job struct {
		src               Source
		height            int
		seed, variantSeed int64
	}
	var jobs []job
	for _, src := range slices.Sorted(maps.Keys(cfg.Counts)) {
		for i := 0; i < cfg.Counts[src]; i++ {
			j := job{src: src}
			if src != SourceOther {
				// Vary the aspect ratio a little per platform.
				j.height = cfg.ImageSize + rng.Intn(cfg.ImageSize)
				j.seed = rng.Int63()
			} else {
				j.seed, j.variantSeed = rng.Int63(), rng.Int63()
			}
			jobs = append(jobs, j)
		}
	}
	// context.TODO: BuildCorpus's signature has no context to thread, and
	// without one MapChunksCtx cannot fail.
	corpus.Examples, _ = parallel.MapChunksCtx(context.TODO(), len(jobs), 0, func(lo, hi int) []Example {
		var ex extractor // one luminance plane per chunk, not per image
		out := make([]Example, 0, hi-lo)
		for _, j := range jobs[lo:hi] {
			var img *image.RGBA
			isScreenshot := j.src != SourceOther
			if isScreenshot {
				img = imaging.Screenshot(j.seed, cfg.ImageSize, j.height)
			} else {
				base := imaging.TemplateSized(j.seed, cfg.ImageSize, cfg.ImageSize)
				img = imaging.Variant(base, j.variantSeed, 0.4)
			}
			out = append(out, Example{Features: ex.features(img), Label: isScreenshot, Source: j.src})
		}
		return out
	})
	// Shuffle so splits are class-balanced in expectation.
	rng.Shuffle(len(corpus.Examples), func(i, j int) {
		corpus.Examples[i], corpus.Examples[j] = corpus.Examples[j], corpus.Examples[i]
	})
	return corpus, nil
}

// Split partitions the corpus into train and test sets with the given train
// fraction (the paper uses 80/20).
func (c *Corpus) Split(trainFraction float64) (train, test []Example, err error) {
	if trainFraction <= 0 || trainFraction >= 1 {
		return nil, nil, fmt.Errorf("screenshot: train fraction %v outside (0,1)", trainFraction)
	}
	n := int(float64(len(c.Examples)) * trainFraction)
	if n == 0 || n == len(c.Examples) {
		return nil, nil, errors.New("screenshot: split leaves an empty partition")
	}
	return c.Examples[:n], c.Examples[n:], nil
}

// ExperimentResult bundles the trained classifier with its held-out
// evaluation.
type ExperimentResult struct {
	Classifier *Classifier
	Evaluation Evaluation
	TrainSize  int
	TestSize   int
}

// RunExperiment builds a corpus, trains the classifier on an 80% split, and
// evaluates it on the remaining 20%, reproducing the experiment behind
// Figure 19 and the Appendix C metrics.
func RunExperiment(corpusCfg CorpusConfig, trainCfg TrainConfig) (*ExperimentResult, error) {
	corpus, err := BuildCorpus(corpusCfg)
	if err != nil {
		return nil, err
	}
	train, test, err := corpus.Split(0.8)
	if err != nil {
		return nil, err
	}
	feats := make([][]float64, len(train))
	labels := make([]bool, len(train))
	for i, ex := range train {
		feats[i] = ex.Features
		labels[i] = ex.Label
	}
	clf, err := Train(feats, labels, trainCfg)
	if err != nil {
		return nil, err
	}
	probs := make([]float64, len(test))
	testLabels := make([]bool, len(test))
	for i, ex := range test {
		probs[i] = clf.Probability(ex.Features)
		testLabels[i] = ex.Label
	}
	ev, err := Evaluate(probs, testLabels)
	if err != nil {
		return nil, err
	}
	return &ExperimentResult{
		Classifier: clf,
		Evaluation: ev,
		TrainSize:  len(train),
		TestSize:   len(test),
	}, nil
}
