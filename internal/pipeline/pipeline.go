// Package pipeline orchestrates the paper's processing pipeline (Figure 2):
//
//	Step 1   pHash extraction (performed by the dataset generator or by
//	         hashing images directly via HashImages)
//	Steps 2-3 pairwise distance computation and DBSCAN clustering of the
//	         images posted on the fringe communities (/pol/, The Donald, Gab)
//	Step 4   screenshot removal from annotation-site galleries
//	Step 5   cluster annotation against the KYM site
//	Step 6   association of images from all communities to annotated clusters
//	Step 7   analysis and influence estimation (package analysis)
//
// The engine is a staged concurrent pipeline split into two phases that
// mirror the paper's cost structure:
//
//   - Build (Steps 2-5, expensive, offline): per-community DBSCAN fan-out,
//     parallel medoid materialisation, batch medoid annotation, and
//     construction of the annotated-medoid index (a pluggable
//     internal/index strategy selected by Config.Index). The output is a
//     resident, immutable BuildResult, persistable with Save and
//     reconstitutable with LoadBuild without re-running Steps 2-5.
//   - Associate (Step 6, cheap, repeatable): any post batch — including
//     posts not in the original dataset — streams through a worker pool
//     against the BuildResult's medoid index. BuildResult.Match answers
//     single-hash lookups for serving front-ends.
//
// Run / RunContext compose the two phases into the legacy one-shot call.
// Every stage merges its results in a fixed order, so Result is identical
// for any Config.Workers value; Result.Stats records the per-stage wall
// time and is derived from the StageEvent stream a ProgressFunc observes.
// All phases accept a context.Context and stop promptly on cancellation.
package pipeline

import (
	"context"
	"errors"
	"fmt"

	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/cluster"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/distance"
	"github.com/memes-pipeline/memes/internal/index"
	"github.com/memes-pipeline/memes/internal/phash"
)

// Config holds the tunable parameters of the pipeline.
type Config struct {
	// Clustering configures DBSCAN (Steps 2-3); the paper uses eps=8,
	// minPts=5.
	Clustering cluster.DBSCANConfig
	// AnnotationThreshold is θ for matching cluster medoids against KYM
	// gallery images (Step 5).
	AnnotationThreshold int
	// AssociationThreshold is θ for matching posts from any community
	// against annotated cluster medoids (Step 6).
	AssociationThreshold int
	// Workers bounds the number of concurrent workers used by every stage;
	// zero means GOMAXPROCS. The pipeline output is identical for any
	// worker count.
	Workers int
	// Index selects the medoid-index strategy the Step 6 serve path queries
	// (see internal/index); empty means the default BK-tree. Every
	// registered strategy produces identical associations — the choice only
	// shapes the cost profile.
	Index index.Strategy
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Clustering:           cluster.DefaultDBSCANConfig(),
		AnnotationThreshold:  annotate.DefaultThreshold,
		AssociationThreshold: annotate.DefaultThreshold,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Clustering.Validate(); err != nil {
		return err
	}
	if c.AnnotationThreshold < 0 || c.AnnotationThreshold > phash.MaxDistance {
		return fmt.Errorf("pipeline: annotation threshold %d out of range", c.AnnotationThreshold)
	}
	if c.AssociationThreshold < 0 || c.AssociationThreshold > phash.MaxDistance {
		return fmt.Errorf("pipeline: association threshold %d out of range", c.AssociationThreshold)
	}
	if c.Workers < 0 {
		return errors.New("pipeline: negative worker count")
	}
	if err := c.Index.Validate(); err != nil {
		return err
	}
	return nil
}

// ClusterInfo is one cluster produced by Steps 2-5: which fringe community
// it came from, its medoid, its size, and its KYM annotation.
type ClusterInfo struct {
	// ID is the cluster's index in Result.Clusters.
	ID int
	// Community is the fringe community the cluster was built from.
	Community dataset.Community
	// Label is the DBSCAN label within that community.
	Label int
	// MedoidHash is the perceptual hash of the cluster medoid.
	MedoidHash phash.Hash
	// Images is the number of image occurrences in the cluster.
	Images int
	// DistinctHashes is the number of distinct perceptual hashes in the
	// cluster.
	DistinctHashes int
	// Annotation is the Step 5 annotation (possibly empty).
	Annotation annotate.Annotation
	// Racist and Political report membership of the representative entry (or
	// any matched entry) in the tag groups of Section 4.2.1.
	Racist    bool
	Political bool
}

// Annotated reports whether the cluster received a KYM annotation.
func (c *ClusterInfo) Annotated() bool { return c.Annotation.Annotated() }

// EntryName returns the representative KYM entry name, or "" when the
// cluster is unannotated.
func (c *ClusterInfo) EntryName() string {
	if c.Annotation.Representative == nil {
		return ""
	}
	return c.Annotation.Representative.Name
}

// Features converts the cluster into the feature set consumed by the custom
// distance metric.
func (c *ClusterInfo) Features() distance.ClusterFeatures {
	return distance.ClusterFeatures{
		MedoidHash: c.MedoidHash,
		Memes:      c.Annotation.NamesByCategory(annotate.CategoryMeme),
		Cultures: append(c.Annotation.NamesByCategory(annotate.CategoryCulture),
			c.Annotation.NamesByCategory(annotate.CategorySubculture)...),
		People:    c.Annotation.NamesByCategory(annotate.CategoryPeople),
		Annotated: c.Annotated(),
	}
}

// CommunityClustering summarises Steps 2-3 for one fringe community
// (Table 2).
type CommunityClustering struct {
	Community      dataset.Community
	Images         int
	DistinctHashes int
	NoiseImages    int
	Clusters       int
	Annotated      int
}

// NoiseFraction returns the fraction of images labelled noise.
func (c CommunityClustering) NoiseFraction() float64 {
	if c.Images == 0 {
		return 0
	}
	return float64(c.NoiseImages) / float64(c.Images)
}

// Association links one post to an annotated cluster (Step 6).
type Association struct {
	// PostIndex indexes into the dataset's Posts slice.
	PostIndex int
	// ClusterID indexes into Result.Clusters.
	ClusterID int
	// Distance is the Hamming distance between the post image and the
	// cluster medoid.
	Distance int
}

// Result is the output of Steps 1-6.
type Result struct {
	// Config echoes the configuration used.
	Config Config
	// Dataset is the corpus the pipeline ran on.
	Dataset *dataset.Dataset
	// Site is the annotation site used for Step 5.
	Site *annotate.Site
	// PerCommunity holds the clustering summary of each fringe community.
	PerCommunity map[dataset.Community]CommunityClustering
	// Clusters lists every cluster across the fringe communities.
	Clusters []ClusterInfo
	// Associations links posts from all communities to annotated clusters,
	// sorted by post index.
	Associations []Association
	// Stats records the per-stage wall time and throughput of the run. It is
	// the only Result field that varies between runs on identical inputs.
	Stats RunStats
}

// AnnotatedClusters returns the indexes of clusters with a KYM annotation.
func (r *Result) AnnotatedClusters() []int {
	var out []int
	for i := range r.Clusters {
		if r.Clusters[i].Annotated() {
			out = append(out, i)
		}
	}
	return out
}

// Communities returns the fringe communities present in PerCommunity in the
// fixed dataset.Communities() order, so ranging over per-community
// summaries (a map) produces reproducible output.
func (r *Result) Communities() []dataset.Community {
	return communitiesOf(r.PerCommunity)
}

// communityPartial is the Steps 2-3 output for one fringe community before
// annotation and ID assignment. hashes/counts/dbres carry the DBSCAN output
// to the materialise phase; clusters is filled there.
type communityPartial struct {
	summary  CommunityClustering
	hashes   []phash.Hash
	counts   []int
	dbres    cluster.Result
	clusters []cluster.Cluster
}

// Run executes Steps 1-6 over a generated dataset and an annotation site.
// The site should already have screenshots removed (Step 4); use
// dataset.Dataset.Site(true) or a screenshot.Classifier-based filter.
//
// The stages run concurrently on Config.Workers workers, but the returned
// Result (clusters, IDs, associations, summaries) is identical for every
// worker count. Run is the one-shot composition of Build (Steps 2-5) and
// BuildResult.Result (Step 6); callers that query repeatedly should Build
// once and Associate many times instead.
func Run(ds *dataset.Dataset, site *annotate.Site, cfg Config) (*Result, error) {
	return RunContext(context.Background(), ds, site, cfg, nil)
}

// RunContext is Run with cancellation and progress observation.
func RunContext(ctx context.Context, ds *dataset.Dataset, site *annotate.Site, cfg Config, progress ProgressFunc) (*Result, error) {
	b, err := Build(ctx, ds, site, cfg, progress)
	if err != nil {
		return nil, err
	}
	return b.Result(ctx)
}

// clusterCommunity performs the first phase of Steps 2-3 for one fringe
// community: distinct-hash extraction and DBSCAN. Medoid materialisation
// happens afterwards in Run, one community at a time. workers is the
// neighbourhood-scan budget for this community's DBSCAN; an explicit
// cfg.Clustering.Workers takes precedence.
func clusterCommunity(ctx context.Context, ds *dataset.Dataset, comm dataset.Community, cfg Config, workers int) (communityPartial, error) {
	// Distinct hashes and their occurrence counts within this community.
	var hashes []phash.Hash
	var counts []int
	index := make(map[phash.Hash]int)
	images := 0
	for _, p := range ds.Posts {
		if !p.HasImage || p.Community != comm {
			continue
		}
		images++
		h := p.PHash()
		if at, ok := index[h]; ok {
			counts[at]++
		} else {
			index[h] = len(hashes)
			hashes = append(hashes, h)
			counts = append(counts, 1)
		}
	}

	summary := CommunityClustering{Community: comm, Images: images, DistinctHashes: len(hashes)}
	if len(hashes) == 0 {
		return communityPartial{summary: summary}, nil
	}

	cc := cfg.Clustering
	if cc.Workers == 0 {
		cc.Workers = workers
	}
	dbres, err := cluster.DBSCANCtx(ctx, hashes, counts, cc)
	if err != nil {
		return communityPartial{}, err
	}
	// Noise measured in image occurrences, as in Table 2.
	for i, lbl := range dbres.Labels {
		if lbl == cluster.Noise {
			summary.NoiseImages += counts[i]
		}
	}
	return communityPartial{summary: summary, hashes: hashes, counts: counts, dbres: dbres}, nil
}
