package annotate

import (
	"math/rand"
	"testing"

	"github.com/memes-pipeline/memes/internal/phash"
)

func perturb(rng *rand.Rand, h phash.Hash, k int) phash.Hash {
	perm := rng.Perm(64)
	for i := 0; i < k; i++ {
		h ^= 1 << uint(perm[i])
	}
	return h
}

func testEntries(rng *rand.Rand) []*Entry {
	pepeBase := phash.Hash(rng.Uint64())
	merchantBase := phash.Hash(rng.Uint64())
	trumpBase := phash.Hash(rng.Uint64())
	gallery := func(base phash.Hash, n, spread int) []phash.Hash {
		out := make([]phash.Hash, n)
		for i := range out {
			out[i] = perturb(rng, base, rng.Intn(spread+1))
		}
		return out
	}
	return []*Entry{
		{
			Name: "pepe-the-frog", Title: "Pepe the Frog", Category: CategoryMeme,
			Tags: []string{"frog", "4chan", "racism"}, Origin: "4chan", Year: 2008,
			Gallery: gallery(pepeBase, 20, 4),
		},
		{
			Name: "happy-merchant", Title: "Happy Merchant", Category: CategoryMeme,
			Tags: []string{"antisemitism", "4chan"}, Origin: "4chan", Year: 2012,
			Gallery: gallery(merchantBase, 15, 4),
		},
		{
			Name: "donald-trump", Title: "Donald Trump", Category: CategoryPeople,
			Tags: []string{"politics", "trump"}, Origin: "twitter", Year: 2015,
			Gallery: gallery(trumpBase, 10, 4),
		},
		{
			Name: "alt-right", Title: "Alt-Right", Category: CategoryCulture,
			Tags: []string{"politics"}, Origin: "unknown", Year: 2016,
			Gallery: nil,
		},
	}
}

func TestCategoryValid(t *testing.T) {
	for _, c := range []Category{CategoryMeme, CategorySubculture, CategoryEvent,
		CategoryCulture, CategorySite, CategoryPeople} {
		if !c.Valid() {
			t.Errorf("category %q should be valid", c)
		}
	}
	if Category("bogus").Valid() {
		t.Error("bogus category should be invalid")
	}
}

func TestEntryValidate(t *testing.T) {
	e := &Entry{Name: "x", Category: CategoryMeme}
	if err := e.Validate(); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	if err := (&Entry{Category: CategoryMeme}).Validate(); err == nil {
		t.Fatal("empty name should be rejected")
	}
	if err := (&Entry{Name: "x", Category: "nope"}).Validate(); err == nil {
		t.Fatal("invalid category should be rejected")
	}
}

func TestEntryTags(t *testing.T) {
	e := &Entry{Name: "x", Category: CategoryMeme, Tags: []string{"Racism", "funny"}}
	if !e.HasTag("racism") {
		t.Error("HasTag should be case-insensitive")
	}
	if e.HasTag("politics") {
		t.Error("HasTag false positive")
	}
	if !e.IsRacist() {
		t.Error("entry tagged racism should be racist group")
	}
	if e.IsPolitical() {
		t.Error("entry should not be political")
	}
	p := &Entry{Name: "y", Category: CategoryMeme, Tags: []string{"2016 US Presidential Election"}}
	if !p.IsPolitical() {
		t.Error("election tag should mark entry political")
	}
}

func TestNewSiteValidation(t *testing.T) {
	if _, err := NewSite([]*Entry{{Name: "", Category: CategoryMeme}}); err == nil {
		t.Fatal("invalid entry should be rejected")
	}
	dup := []*Entry{
		{Name: "a", Category: CategoryMeme},
		{Name: "a", Category: CategoryMeme},
	}
	if _, err := NewSite(dup); err == nil {
		t.Fatal("duplicate names should be rejected")
	}
}

func TestSiteAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	entries := testEntries(rng)
	site, err := NewSite(entries)
	if err != nil {
		t.Fatal(err)
	}
	if site.NumEntries() != 4 {
		t.Fatalf("NumEntries = %d", site.NumEntries())
	}
	if site.NumGalleryImages() != 45 {
		t.Fatalf("NumGalleryImages = %d", site.NumGalleryImages())
	}
	if site.Entry("pepe-the-frog") == nil || site.Entry("missing") != nil {
		t.Fatal("Entry lookup broken")
	}
	cats := site.CategoryCounts()
	if cats[CategoryMeme] != 2 || cats[CategoryPeople] != 1 || cats[CategoryCulture] != 1 {
		t.Fatalf("category counts wrong: %v", cats)
	}
	origins := site.OriginCounts()
	if origins["4chan"] != 2 || origins["unknown"] != 1 {
		t.Fatalf("origin counts wrong: %v", origins)
	}
	sizes := site.GallerySizes()
	if len(sizes) != 4 || sizes[0] != 20 {
		t.Fatalf("gallery sizes wrong: %v", sizes)
	}
	if len(site.Entries()) != 4 {
		t.Fatal("Entries accessor wrong")
	}
}

func TestAnnotateMatchesCorrectEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	entries := testEntries(rng)
	site, err := NewSite(entries)
	if err != nil {
		t.Fatal(err)
	}
	// A medoid near the pepe gallery base should be annotated as pepe.
	medoid := perturb(rng, entries[0].Gallery[0], 2)
	ann := site.Annotate(medoid, DefaultThreshold)
	if !ann.Annotated() {
		t.Fatal("medoid near pepe gallery should be annotated")
	}
	if ann.Representative.Name != "pepe-the-frog" {
		t.Fatalf("representative = %q, want pepe-the-frog", ann.Representative.Name)
	}
	found := false
	for _, m := range ann.Matches {
		if m.Entry.Name == "pepe-the-frog" {
			found = true
		}
	}
	if !found {
		t.Fatalf("matches %v should include pepe-the-frog", ann.Matches)
	}
}

func TestAnnotateNoMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	site, err := NewSite(testEntries(rng))
	if err != nil {
		t.Fatal(err)
	}
	// A random hash is ~32 bits from everything: no annotation.
	ann := site.Annotate(phash.Hash(rng.Uint64()), DefaultThreshold)
	if ann.Annotated() {
		t.Fatalf("random medoid should not be annotated, got %v", ann.Matches)
	}
	if ann.Representative != nil {
		t.Fatal("representative should be nil for unannotated cluster")
	}
}

func TestAnnotateNegativeThresholdUsesDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	entries := testEntries(rng)
	site, _ := NewSite(entries)
	medoid := entries[0].Gallery[0]
	a := site.Annotate(medoid, -1)
	b := site.Annotate(medoid, DefaultThreshold)
	if len(a.Matches) != len(b.Matches) {
		t.Fatal("negative threshold should behave like the default")
	}
}

func TestAnnotationRepresentativeSelection(t *testing.T) {
	// Entry A has 2 of 4 gallery images matching (fraction 0.5); entry B has
	// 2 of 2 matching (fraction 1.0). B must be chosen even though both have
	// the same raw match count.
	base := phash.Hash(0x0F0F0F0F0F0F0F0F)
	far := ^base
	a := &Entry{Name: "a", Category: CategoryMeme, Gallery: []phash.Hash{base, base ^ 1, far, far ^ 1}}
	b := &Entry{Name: "b", Category: CategoryMeme, Gallery: []phash.Hash{base ^ 2, base ^ 3}}
	site, err := NewSite([]*Entry{a, b})
	if err != nil {
		t.Fatal(err)
	}
	ann := site.Annotate(base, 8)
	if ann.Representative == nil || ann.Representative.Name != "b" {
		t.Fatalf("representative should be b (higher match fraction), got %+v", ann.Representative)
	}
	if len(ann.Matches) != 2 {
		t.Fatalf("expected both entries matched, got %d", len(ann.Matches))
	}
	if ann.Matches[0].Entry.Name != "b" {
		t.Fatal("matches should be ordered by match fraction")
	}
}

func TestAnnotationTieBreakByMeanDistance(t *testing.T) {
	base := phash.Hash(0x123456789ABCDEF0)
	// Both entries have 1/1 matching images, but a's image is closer.
	a := &Entry{Name: "closer", Category: CategoryMeme, Gallery: []phash.Hash{base ^ 1}}
	b := &Entry{Name: "farther", Category: CategoryMeme, Gallery: []phash.Hash{base ^ 0b111}}
	site, err := NewSite([]*Entry{b, a})
	if err != nil {
		t.Fatal(err)
	}
	ann := site.Annotate(base, 8)
	if ann.Representative.Name != "closer" {
		t.Fatalf("tie should break by mean distance, got %q", ann.Representative.Name)
	}
}

func TestAnnotationNamesByCategory(t *testing.T) {
	base := phash.Hash(0xAAAAAAAA55555555)
	entries := []*Entry{
		{Name: "meme-x", Category: CategoryMeme, Gallery: []phash.Hash{base}},
		{Name: "person-y", Category: CategoryPeople, Gallery: []phash.Hash{base ^ 1}},
	}
	site, err := NewSite(entries)
	if err != nil {
		t.Fatal(err)
	}
	ann := site.Annotate(base, 8)
	if got := ann.NamesByCategory(CategoryMeme); len(got) != 1 || got[0] != "meme-x" {
		t.Fatalf("meme names = %v", got)
	}
	if got := ann.NamesByCategory(CategoryPeople); len(got) != 1 || got[0] != "person-y" {
		t.Fatalf("people names = %v", got)
	}
	if got := ann.NamesByCategory(CategorySite); len(got) != 0 {
		t.Fatalf("site names should be empty, got %v", got)
	}
}

func TestRunPanelDefaults(t *testing.T) {
	res, err := RunPanel(DefaultPanelConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The defaults are calibrated to land near the paper's numbers
	// (kappa = 0.67, accuracy = 89%, bad entries = 1.85%).
	if res.Kappa < 0.45 || res.Kappa > 0.9 {
		t.Errorf("kappa %v far from the paper's 0.67", res.Kappa)
	}
	if res.MajorityAccuracy < 0.8 {
		t.Errorf("majority accuracy %v far from the paper's 0.89", res.MajorityAccuracy)
	}
	if res.BadEntryFraction < 0 || res.BadEntryFraction > 0.1 {
		t.Errorf("bad entry fraction %v implausible", res.BadEntryFraction)
	}
	if res.SubjectsAssessed != 200 || res.EntriesAssessed != 162 {
		t.Errorf("unexpected evaluation sizes: %+v", res)
	}
}

func TestRunPanelValidation(t *testing.T) {
	bad := []PanelConfig{
		{Annotators: 1, Subjects: 10, Accuracy: 0.9},
		{Annotators: 3, Subjects: 0, Accuracy: 0.9},
		{Annotators: 3, Subjects: 10, Accuracy: 1.5},
		{Annotators: 3, Subjects: 10, Accuracy: 0.9, ValidRate: 1.2},
		{Annotators: 3, Subjects: 10, Accuracy: 0.9, BadEntryRate: -0.1},
		{Annotators: 3, Subjects: 10, Accuracy: 0.9, Entries: -1},
	}
	for _, cfg := range bad {
		if _, err := RunPanel(cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}

func TestRunPanelDeterministic(t *testing.T) {
	cfg := DefaultPanelConfig()
	a, err := RunPanel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPanel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("panel results should be deterministic: %+v vs %+v", a, b)
	}
}

func TestRunPanelPerfectAnnotators(t *testing.T) {
	cfg := DefaultPanelConfig()
	cfg.Accuracy = 1
	cfg.ValidRate = 1
	res, err := RunPanel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MajorityAccuracy != 1 {
		t.Fatalf("perfect annotations should give majority accuracy 1, got %v", res.MajorityAccuracy)
	}
	if res.Kappa != 1 {
		t.Fatalf("unanimous panel should give kappa 1, got %v", res.Kappa)
	}
}

func TestRunPanelMajorityTracksValidRate(t *testing.T) {
	cfg := DefaultPanelConfig()
	cfg.Accuracy = 1
	cfg.ValidRate = 0.5
	cfg.Subjects = 2000
	res, err := RunPanel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MajorityAccuracy < 0.4 || res.MajorityAccuracy > 0.6 {
		t.Fatalf("with perfect annotators majority accuracy should track the valid rate, got %v", res.MajorityAccuracy)
	}
}
