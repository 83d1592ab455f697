package dataset

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/phash"
)

// smallDataset is generated once and shared across tests (it is read-only).
var smallDataset *Dataset

func getSmall(t *testing.T) *Dataset {
	t.Helper()
	if smallDataset == nil {
		ds, err := Generate(SmallConfig())
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		smallDataset = ds
	}
	return smallDataset
}

func TestCommunityHelpers(t *testing.T) {
	if len(Communities()) != NumCommunities {
		t.Fatal("Communities() length mismatch")
	}
	if Pol.String() != "/pol/" || TheDonald.String() != "The_Donald" {
		t.Fatal("unexpected community names")
	}
	if Community(99).String() == "" {
		t.Fatal("unknown community should still stringify")
	}
	if !Pol.Fringe() || !Gab.Fringe() || !TheDonald.Fringe() {
		t.Fatal("fringe classification wrong")
	}
	if Reddit.Fringe() || Twitter.Fringe() {
		t.Fatal("mainstream communities misclassified as fringe")
	}
	if TheDonald.Platform() != "Reddit" || Pol.Platform() != "/pol/" {
		t.Fatal("platform mapping wrong")
	}
	if !Reddit.Valid() || Community(-1).Valid() || Community(5).Valid() {
		t.Fatal("validity check wrong")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := SmallConfig().Validate(); err != nil {
		t.Fatalf("small config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.NumMemes = 0 },
		func(c *Config) { c.VariantsPerMeme = 0 },
		func(c *Config) { c.DurationDays = 1 },
		func(c *Config) { c.RateScale = 0 },
		func(c *Config) { c.RacistFraction = -0.1 },
		func(c *Config) { c.PoliticalFraction = 1.5 },
		func(c *Config) { c.MemesPerEntryMax = 0 },
		func(c *Config) { c.ImageSize = 8 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate the config", i)
		}
	}
}

func TestGroundTruthModelIsStable(t *testing.T) {
	w := groundTruthWeights()
	if len(w) != NumCommunities {
		t.Fatal("weight matrix size mismatch")
	}
	for i, row := range w {
		if len(row) != NumCommunities {
			t.Fatal("weight matrix not square")
		}
		sum := 0.0
		for _, v := range row {
			if v < 0 {
				t.Fatalf("negative weight in row %d", i)
			}
			sum += v
		}
		if sum >= 1 {
			t.Fatalf("row %d sum %v makes the process supercritical", i, sum)
		}
	}
	// The Donald must have the largest external row sum (most efficient);
	// /pol/ the smallest — the planted version of the paper's finding.
	ext := make([]float64, NumCommunities)
	for i, row := range w {
		for j, v := range row {
			if i != j {
				ext[i] += v
			}
		}
	}
	for i := range ext {
		if i != int(TheDonald) && ext[int(TheDonald)] <= ext[i] {
			t.Fatalf("The Donald should have the largest external influence, got %v", ext)
		}
		if i != int(Pol) && ext[int(Pol)] > ext[i] {
			t.Fatalf("/pol/ should have the smallest external influence, got %v", ext)
		}
	}
	// /pol/ must have the largest background rate (most memes produced).
	mu := groundTruthBackground()
	for i := range mu {
		if i != int(Pol) && mu[int(Pol)] <= mu[i] {
			t.Fatalf("/pol/ should have the largest background rate, got %v", mu)
		}
	}
}

func TestGenerateBasicStructure(t *testing.T) {
	ds := getSmall(t)
	if len(ds.Posts) == 0 {
		t.Fatal("no posts generated")
	}
	if len(ds.Memes) != SmallConfig().NumMemes {
		t.Fatalf("meme count %d", len(ds.Memes))
	}
	if len(ds.KYMEntries) == 0 {
		t.Fatal("no KYM entries")
	}
	// Posts sorted by time, all within the window, valid communities.
	prev := time.Time{}
	for _, p := range ds.Posts {
		if p.Timestamp.Before(prev) {
			t.Fatal("posts not sorted by time")
		}
		prev = p.Timestamp
		if p.Timestamp.Before(ds.Start) || p.Timestamp.After(ds.End) {
			t.Fatalf("post outside window: %v", p.Timestamp)
		}
		if !p.Community.Valid() {
			t.Fatalf("invalid community %d", p.Community)
		}
		if p.HasImage && p.Hash == 0 {
			t.Fatal("image post without hash")
		}
		if p.TruthMeme >= len(ds.Memes) {
			t.Fatalf("truth meme %d out of range", p.TruthMeme)
		}
	}
	// Post totals include the posts without images.
	cfg := SmallConfig()
	for _, c := range Communities() {
		imgPosts := 0
		for _, p := range ds.Posts {
			if p.Community == c {
				imgPosts++
			}
		}
		want := imgPosts + cfg.PostsWithoutImages[c]
		if ds.PostTotals[c] != want {
			t.Fatalf("post totals for %v = %d, want %d", c, ds.PostTotals[c], want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := SmallConfig()
	cfg.NumMemes = 8
	cfg.NoiseImages = map[Community]int{Pol: 20}
	cfg.PostsWithoutImages = nil
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Posts) != len(b.Posts) {
		t.Fatalf("non-deterministic post counts: %d vs %d", len(a.Posts), len(b.Posts))
	}
	for i := range a.Posts {
		if a.Posts[i].Hash != b.Posts[i].Hash || !a.Posts[i].Timestamp.Equal(b.Posts[i].Timestamp) {
			t.Fatalf("post %d differs between runs", i)
		}
	}
}

func TestGenerateMemeVariantsAreTight(t *testing.T) {
	ds := getSmall(t)
	for _, m := range ds.Memes {
		if len(m.VariantHashes) != SmallConfig().VariantsPerMeme {
			t.Fatalf("meme %d has %d variants", m.Index, len(m.VariantHashes))
		}
		base := phash.Hash(m.VariantHashes[0])
		for _, vh := range m.VariantHashes[1:] {
			if d := phash.Distance(base, phash.Hash(vh)); d > 8 {
				t.Fatalf("meme %d variant drifted %d bits from its template", m.Index, d)
			}
		}
	}
}

func TestGenerateCommunityVolumesOrdering(t *testing.T) {
	ds := getSmall(t)
	counts := map[Community]int{}
	for _, p := range ds.Posts {
		if p.TruthMeme >= 0 {
			counts[p.Community]++
		}
	}
	// Planted ordering of meme events (Table 7): /pol/ most, Gab least among
	// the main communities.
	if counts[Pol] <= counts[Reddit] || counts[Pol] <= counts[Gab] || counts[Pol] <= counts[TheDonald] {
		t.Fatalf("/pol/ should post the most memes: %v", counts)
	}
	if counts[Gab] >= counts[Twitter] {
		t.Fatalf("Gab should post fewer memes than Twitter: %v", counts)
	}
}

func TestGenerateTagGroups(t *testing.T) {
	ds := getSmall(t)
	racist, political := 0, 0
	for _, m := range ds.Memes {
		if m.Racist {
			racist++
		}
		if m.Political {
			political++
		}
	}
	if racist == 0 {
		t.Fatal("no racist memes planted")
	}
	if political == 0 {
		t.Fatal("no political memes planted")
	}
	if racist >= political {
		t.Fatalf("political memes (%d) should outnumber racist memes (%d)", political, racist)
	}
}

func TestGenerateSubredditsAndScores(t *testing.T) {
	ds := getSmall(t)
	tdCount, redditWithSub := 0, 0
	for _, p := range ds.Posts {
		switch p.Community {
		case TheDonald:
			if p.Subreddit != "The_Donald" {
				t.Fatal("The Donald post with wrong subreddit")
			}
			tdCount++
			if p.Score <= 0 {
				t.Fatal("The Donald post without score")
			}
		case Reddit:
			if p.Subreddit == "" {
				t.Fatal("Reddit post without subreddit")
			}
			if p.Subreddit == "The_Donald" {
				t.Fatal("plain Reddit post labelled The_Donald")
			}
			redditWithSub++
			if p.Score <= 0 {
				t.Fatal("Reddit post without score")
			}
		case Gab:
			if p.Score <= 0 {
				t.Fatal("Gab post without score")
			}
		case Twitter, Pol:
			if p.Score != 0 {
				t.Fatal("Twitter//pol/ posts should have no score")
			}
		}
	}
	if tdCount == 0 || redditWithSub == 0 {
		t.Fatal("expected posts on The Donald and Reddit")
	}
}

func TestGenerateGabLaunchDelay(t *testing.T) {
	ds := getSmall(t)
	launch := ds.Start.AddDate(0, 0, 39)
	for _, p := range ds.Posts {
		if p.Community == Gab && p.Timestamp.Before(launch) {
			t.Fatalf("Gab post at %v predates the platform launch", p.Timestamp)
		}
	}
}

func TestSiteConversion(t *testing.T) {
	ds := getSmall(t)
	siteAll, err := ds.Site(false)
	if err != nil {
		t.Fatal(err)
	}
	siteFiltered, err := ds.Site(true)
	if err != nil {
		t.Fatal(err)
	}
	if siteFiltered.NumGalleryImages() >= siteAll.NumGalleryImages() {
		t.Fatal("screenshot filtering should shrink the galleries")
	}
	if siteAll.NumEntries() != len(ds.KYMEntries) {
		t.Fatal("entry count mismatch")
	}
	// Every entry category must be a valid annotate category.
	for _, e := range siteAll.Entries() {
		if !e.Category.Valid() {
			t.Fatalf("invalid category %q", e.Category)
		}
	}
	// Racist/political tag groups must be visible through the annotate API.
	racist := 0
	for _, e := range siteFiltered.Entries() {
		if e.IsRacist() {
			racist++
		}
	}
	if racist == 0 {
		t.Fatal("no racist entries visible on the site")
	}
	_ = annotate.DefaultThreshold // keep the import obviously intentional
}

func TestPlatformStats(t *testing.T) {
	ds := getSmall(t)
	stats := ds.PlatformStats()
	if len(stats) != 4 {
		t.Fatalf("expected 4 platform rows, got %d", len(stats))
	}
	byName := map[string]Stats{}
	for _, s := range stats {
		byName[s.Platform] = s
		if s.Posts < s.PostsWithImages {
			t.Fatalf("%s: posts < posts with images", s.Platform)
		}
		if s.UniquePHashes > s.Images {
			t.Fatalf("%s: more unique hashes than images", s.Platform)
		}
	}
	// Reddit row must fold in The Donald.
	redditPosts := ds.PostTotals[Reddit] + ds.PostTotals[TheDonald]
	if byName["Reddit"].Posts != redditPosts {
		t.Fatalf("Reddit platform posts %d, want %d", byName["Reddit"].Posts, redditPosts)
	}
}

func TestFringeImageHashes(t *testing.T) {
	ds := getSmall(t)
	hashes, counts, postIdx := ds.FringeImageHashes()
	if len(hashes) != len(counts) {
		t.Fatal("hashes and counts misaligned")
	}
	totalOccurrences := 0
	for _, c := range counts {
		totalOccurrences += c
	}
	fringePosts := 0
	for _, p := range ds.Posts {
		if p.HasImage && p.Community.Fringe() {
			fringePosts++
		}
	}
	if totalOccurrences != fringePosts {
		t.Fatalf("occurrence total %d != fringe image posts %d", totalOccurrences, fringePosts)
	}
	for h, idxs := range postIdx {
		for _, i := range idxs {
			if ds.Posts[i].PHash() != h {
				t.Fatal("post index map points at the wrong post")
			}
			if !ds.Posts[i].Community.Fringe() {
				t.Fatal("post index map includes mainstream posts")
			}
		}
	}
}

func TestSaveAndLoadRoundTrip(t *testing.T) {
	cfg := SmallConfig()
	cfg.NumMemes = 6
	cfg.NoiseImages = map[Community]int{Pol: 30, Twitter: 30}
	cfg.PostsWithoutImages = map[Community]int{Pol: 100}
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "corpus")
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Posts) != len(ds.Posts) {
		t.Fatalf("loaded %d posts, want %d", len(loaded.Posts), len(ds.Posts))
	}
	if len(loaded.Memes) != len(ds.Memes) || len(loaded.KYMEntries) != len(ds.KYMEntries) {
		t.Fatal("metadata lost in round trip")
	}
	if loaded.PostTotals[Pol] != ds.PostTotals[Pol] {
		t.Fatal("post totals lost in round trip")
	}
	for i := range ds.Posts {
		if loaded.Posts[i].Hash != ds.Posts[i].Hash ||
			loaded.Posts[i].Community != ds.Posts[i].Community ||
			!loaded.Posts[i].Timestamp.Equal(ds.Posts[i].Timestamp) {
			t.Fatalf("post %d corrupted in round trip", i)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("loading a missing directory should fail")
	}
}

func TestSamplePopularityHeavyTailed(t *testing.T) {
	rngDs := getSmall(t)
	_ = rngDs
	// Popularity values must be positive and bounded.
	for _, m := range getSmall(t).Memes {
		if m.Popularity <= 0 || m.Popularity > 12 {
			t.Fatalf("popularity %v out of range", m.Popularity)
		}
	}
}
