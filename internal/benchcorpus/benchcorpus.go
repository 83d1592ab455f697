// Package benchcorpus pins the mid-sized synthetic corpus the repo measures
// on: cmd/memebench's performance table, the table and figure benchmarks of
// bench_test.go, and benchmark/cmd/memeload's `small` workloads all
// generate it from here. Changing it starts a new corpus generation for the
// committed BENCH_*.json trajectory points, which are then no longer
// comparable with earlier ones.
package benchcorpus

import "github.com/memes-pipeline/memes/internal/dataset"

// Config returns the benchmark corpus: a mid-sized synthetic corpus, large
// enough that the paper's qualitative shapes emerge, small enough that the
// full benchmark suite runs in minutes on a laptop.
func Config() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.NumMemes = 60
	cfg.DurationDays = 200
	cfg.NoiseImages = map[dataset.Community]int{
		dataset.Pol: 20000, dataset.Reddit: 7000, dataset.Twitter: 11000,
		dataset.Gab: 1100, dataset.TheDonald: 2200,
	}
	cfg.PostsWithoutImages = map[dataset.Community]int{
		dataset.Pol: 8000, dataset.Reddit: 20000, dataset.Twitter: 30000,
		dataset.Gab: 2000, dataset.TheDonald: 2500,
	}
	return cfg
}
