// Package memes is the public API of the meme-tracking pipeline described in
// "On the Origins of Memes by Means of Fringe Web Communities" (IMC 2018).
//
// The package wraps the internal building blocks into a small, stable
// surface built around a build-once / query-many split that mirrors the
// paper's cost structure — an expensive offline build (Steps 2-5) and a
// cheap repeatable query phase (Step 6, the stage the paper runs over 160M
// images):
//
//   - GenerateDataset / LoadDataset build or load a synthetic multi-community
//     corpus with a Know Your Meme-style annotation site (the stand-in for
//     the paper's 160M crawled images: planted memes with ground-truth KYM
//     entries and Hawkes-driven cross-community cascades).
//   - NewEngine runs the build phase once (pHash clustering of the fringe
//     communities, screenshot filtering, KYM annotation) and keeps the
//     annotated-cluster index resident; Engine.Associate, Engine.Match, and
//     Engine.MatchImage then serve goroutine-safe, context-cancellable
//     queries against it, and Engine.Result materialises the full legacy
//     result. Engine.Save and LoadEngine split the build from the serving
//     process; NewHotEngine and NewIngestor serve while new posts stream in.
//   - NewReport regenerates every table and figure of the paper's evaluation
//     from a pipeline result, and EstimateInfluence fits the Section 5
//     Hawkes models for one meme group.
//   - HashImage, NewMetric, and TrainScreenshotClassifier expose the
//     individual algorithmic components for standalone use.
//
// The package's Example functions are runnable end-to-end walkthroughs;
// go test runs them and checks their output.
package memes

import (
	"image"

	"github.com/memes-pipeline/memes/internal/analysis"
	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/distance"
	"github.com/memes-pipeline/memes/internal/index"
	"github.com/memes-pipeline/memes/internal/phash"
	"github.com/memes-pipeline/memes/internal/pipeline"
	"github.com/memes-pipeline/memes/internal/screenshot"
)

// Hash is a 64-bit DCT perceptual hash of an image.
type Hash = phash.Hash

// HashImage computes the perceptual hash of an image (Step 1 of the
// pipeline).
func HashImage(img image.Image) (Hash, error) { return phash.FromImage(img) }

// Community identifies one of the five Web communities of the study.
type Community = dataset.Community

// The five communities, in Hawkes process-index order.
const (
	Pol       = dataset.Pol
	Reddit    = dataset.Reddit
	Twitter   = dataset.Twitter
	Gab       = dataset.Gab
	TheDonald = dataset.TheDonald
)

// Dataset is a generated or loaded corpus of posts plus its annotation site.
type Dataset = dataset.Dataset

// DatasetConfig controls synthetic corpus generation.
type DatasetConfig = dataset.Config

// DefaultDatasetConfig returns the paper-profile corpus configuration.
func DefaultDatasetConfig() DatasetConfig { return dataset.DefaultConfig() }

// SmallDatasetConfig returns a miniature corpus configuration that runs in
// well under a second; useful for tests and demos.
func SmallDatasetConfig() DatasetConfig { return dataset.SmallConfig() }

// GenerateDataset synthesises a corpus.
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) { return dataset.Generate(cfg) }

// LoadDataset loads a corpus previously written with (*Dataset).Save.
func LoadDataset(dir string) (*Dataset, error) { return dataset.Load(dir) }

// AnnotationSite is a Know Your Meme-style annotation site.
type AnnotationSite = annotate.Site

// IndexStrategy names a medoid-index implementation for the Step 6 serve
// path; select one with WithIndex. All strategies produce bitwise-identical
// pipeline output — they differ only in cost profile.
type IndexStrategy = index.Strategy

// The built-in index strategies.
const (
	// IndexBKTree is a single Burkhard-Keller metric tree. At θ = 8 it
	// visits most of its nodes, so it is no longer the default.
	IndexBKTree = index.BKTree
	// IndexMultiIndex is multi-index hashing (the default): one flat table
	// of eight 8-bit bands over the distinct medoid hashes, probed with the
	// substring bound — at θ = 8 a lookup popcounts about a sixteenth of
	// them, and an exact hit ends it.
	IndexMultiIndex = index.MultiIndex
	// IndexSharded partitions medoids across per-shard BK-trees and fans
	// each query out across the shards in parallel.
	IndexSharded = index.Sharded
)

// IndexStrategies lists every registered index strategy in sorted order.
func IndexStrategies() []IndexStrategy { return index.Strategies() }

// Result is the output of the pipeline: per-community clusterings, annotated
// clusters, and post-to-cluster associations.
type Result = pipeline.Result

// ClusterInfo describes one cluster: its fringe community, medoid, size, and
// KYM annotation.
type ClusterInfo = pipeline.ClusterInfo

// Metric is the custom inter-cluster distance metric of Section 2.3.
type Metric = distance.Metric

// NewMetric builds the custom distance metric with the paper's constants
// (tau=25, full-mode weights 0.4/0.4/0.1/0.1). The error is always nil.
func NewMetric() (*Metric, error) { return distance.New(), nil }

// Report regenerates the paper's tables and figures from a pipeline result.
type Report = analysis.Report

// ReportSection is one rendered report section (a paper table or figure);
// see Report.Sections.
type ReportSection = analysis.Section

// NewReport builds a report generator.
func NewReport(res *Result) (*Report, error) { return analysis.NewReport(res) }

// MemeGroup selects a subset of memes (all, racist, political, ...).
type MemeGroup = analysis.MemeGroup

// Meme groups accepted by the influence and temporal analyses.
const (
	AllMemes          = analysis.AllMemes
	RacistMemes       = analysis.RacistMemes
	NonRacistMemes    = analysis.NonRacistMemes
	PoliticalMemes    = analysis.PoliticalMemes
	NonPoliticalMemes = analysis.NonPoliticalMemes
)

// InfluenceResult holds the raw and normalized influence matrices of
// Figures 11-16.
type InfluenceResult = analysis.InfluenceResult

// EstimateInfluence fits per-meme Hawkes models and aggregates them into the
// community-to-community influence matrices for the given meme group.
func EstimateInfluence(res *Result, group MemeGroup) (*InfluenceResult, error) {
	return analysis.EstimateInfluence(res, group, analysis.DefaultInfluenceConfig())
}

// ScreenshotClassifier is the learned filter that removes social-network
// screenshots from annotation-site galleries (Step 4).
type ScreenshotClassifier = screenshot.Classifier

// TrainScreenshotClassifier trains the screenshot classifier on a synthetic
// corpus and returns it together with its held-out evaluation (Figure 19).
func TrainScreenshotClassifier() (*screenshot.ExperimentResult, error) {
	return screenshot.RunExperiment(screenshot.DefaultCorpusConfig(), screenshot.DefaultTrainConfig())
}

// IsScreenshot reports whether the classifier judges the image to be a
// social-network screenshot.
func IsScreenshot(clf *ScreenshotClassifier, img image.Image) bool {
	return clf.Predict(screenshot.Features(img))
}
