package screenshot

import (
	"image"
	"math"
	"testing"

	"github.com/memes-pipeline/memes/internal/imaging"
)

// featuresReference is Features as it stood before the *image.RGBA fast
// path and the fixed histogram: every pixel through img.At, two map
// histograms, and a collected margin. Features must stay bitwise-identical
// to it.
func featuresReference(img image.Image) []float64 {
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	if w == 0 || h == 0 {
		return make([]float64, NumFeatures)
	}
	gray := make([]float64, w*h)
	colorKey := make([]uint32, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, bl, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
			r8, g8, b8 := float64(r>>8), float64(g>>8), float64(bl>>8)
			gray[y*w+x] = 0.299*r8 + 0.587*g8 + 0.114*b8
			colorKey[y*w+x] = (r >> 12 << 8) | (g >> 12 << 4) | (bl >> 12)
		}
	}
	counts := make(map[uint32]int)
	for _, k := range colorKey {
		counts[k]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	diversity := float64(len(counts)) / 512.0
	if diversity > 1 {
		diversity = 1
	}

	mx, my := w/20, h/20
	if mx < 1 {
		mx = 1
	}
	if my < 1 {
		my = 1
	}
	var vals []float64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x < mx || x >= w-mx || y < my || y >= h-my {
				vals = append(vals, gray[y*w+x])
			}
		}
	}
	m := 0.0
	for _, v := range vals {
		m += v
	}
	m /= float64(len(vals))
	va := 0.0
	for _, v := range vals {
		va += (v - m) * (v - m)
	}
	va /= float64(len(vals))

	f := make([]float64, NumFeatures)
	f[0] = float64(max) / float64(len(colorKey))
	f[1] = diversity
	f[2] = meanLuminance(gray)
	f[3] = luminanceVariance(gray)
	f[4] = horizontalEdgeDensity(gray, w, h)
	f[5] = verticalEdgeDensity(gray, w, h)
	f[6] = 1 - math.Min(va/16256.25, 1)
	f[7] = rowBanding(gray, w, h)
	f[8] = extremePixelFraction(gray)
	f[9] = aspectRatioFeature(w, h)
	return f
}

func requireSameFeatures(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d features, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: feature %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestFeaturesMatchReference holds both pixel paths — Pix for *image.RGBA,
// At for everything else — to the historical implementation, on whole
// images, on a sub-image whose bounds do not start at the origin, and with
// one extractor reused across images of different sizes.
func TestFeaturesMatchReference(t *testing.T) {
	shot := imaging.Screenshot(5, 96, 150)
	meme := imaging.Variant(imaging.TemplateSized(6, 96, 96), 7, 0.4)
	images := map[string]image.Image{
		"screenshot": shot,
		"meme":       meme,
		"sub-image":  shot.SubImage(image.Rect(7, 11, 80, 120)),
		"tiny":       meme.SubImage(image.Rect(40, 40, 41, 42)),
		"empty":      image.NewRGBA(image.Rect(0, 0, 0, 0)),
	}
	var ex extractor
	for name, img := range images {
		want := featuresReference(img)
		requireSameFeatures(t, name, Features(img), want)
		requireSameFeatures(t, name+" (reused extractor)", ex.features(img), want)
		// Hiding the concrete type forces the At path.
		requireSameFeatures(t, name+" (At path)", Features(struct{ image.Image }{img}), want)
	}
}

// TestBuildCorpusIsAFunctionOfTheSeed: source order used to follow map
// iteration while drawing from one shared rand.Rand, so every call built a
// different corpus.
func TestBuildCorpusIsAFunctionOfTheSeed(t *testing.T) {
	cfg := DefaultCorpusConfig()
	for s, n := range cfg.Counts {
		cfg.Counts[s] = n/20 + 3
	}
	first, err := BuildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 4; call++ {
		again, err := BuildCorpus(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Examples) != len(first.Examples) {
			t.Fatalf("call %d: %d examples, want %d", call, len(again.Examples), len(first.Examples))
		}
		for i, ex := range again.Examples {
			want := first.Examples[i]
			if ex.Source != want.Source || ex.Label != want.Label {
				t.Fatalf("call %d: example %d is %s/%v, want %s/%v", call, i, ex.Source, ex.Label, want.Source, want.Label)
			}
			requireSameFeatures(t, "example", ex.Features, want.Features)
		}
	}
}
