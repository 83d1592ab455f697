package imaging

import (
	"image"
	"image/color"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/memes-pipeline/memes/internal/phash"
)

func TestTemplateDeterministic(t *testing.T) {
	a := Template(42)
	b := Template(42)
	if len(a.Pix) != len(b.Pix) {
		t.Fatal("dimension mismatch")
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatalf("pixel %d differs between renders of the same seed", i)
		}
	}
}

func TestTemplateDifferentSeedsDiffer(t *testing.T) {
	a := Template(1)
	b := Template(2)
	same := 0
	for i := range a.Pix {
		if a.Pix[i] == b.Pix[i] {
			same++
		}
	}
	if same == len(a.Pix) {
		t.Fatal("different seeds produced identical images")
	}
}

func TestTemplateSized(t *testing.T) {
	img := TemplateSized(7, 64, 96)
	if img.Bounds().Dx() != 64 || img.Bounds().Dy() != 96 {
		t.Fatalf("unexpected dimensions %v", img.Bounds())
	}
}

func TestVariantStaysPerceptuallyClose(t *testing.T) {
	close := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		base := Template(int64(100 + i))
		hBase, err := phash.FromImage(base)
		if err != nil {
			t.Fatal(err)
		}
		v := Variant(base, int64(9000+i), 0.25)
		hVar, err := phash.FromImage(v)
		if err != nil {
			t.Fatal(err)
		}
		if phash.Distance(hBase, hVar) <= 10 {
			close++
		}
	}
	if close < trials*7/10 {
		t.Fatalf("only %d/%d low-strength variants stayed close to their template", close, trials)
	}
}

func TestDistinctTemplatesPerceptuallyFar(t *testing.T) {
	far := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		a := Template(int64(i))
		b := Template(int64(i + 1000))
		ha, _ := phash.FromImage(a)
		hb, _ := phash.FromImage(b)
		if phash.Distance(ha, hb) > 10 {
			far++
		}
	}
	if far < trials*7/10 {
		t.Fatalf("only %d/%d distinct templates are perceptually far apart", far, trials)
	}
}

func TestVariantDoesNotMutateBase(t *testing.T) {
	base := Template(3)
	before := make([]uint8, len(base.Pix))
	copy(before, base.Pix)
	_ = Variant(base, 77, 0.9)
	for i := range before {
		if base.Pix[i] != before[i] {
			t.Fatal("Variant mutated the base image")
		}
	}
}

func TestVariantStrengthClamping(t *testing.T) {
	base := Template(5)
	// Out-of-range strengths must not panic and must return a valid image.
	for _, s := range []float64{-1, 0, 2} {
		v := Variant(base, 1, s)
		if v.Bounds().Dx() != base.Bounds().Dx() {
			t.Fatalf("variant with strength %v has wrong size", s)
		}
	}
}

func TestScreenshotStructure(t *testing.T) {
	img := Screenshot(10, 200, 300)
	if img.Bounds().Dx() != 200 || img.Bounds().Dy() != 300 {
		t.Fatalf("unexpected dimensions %v", img.Bounds())
	}
	// Screenshots should be dominated by near-uniform background: measure the
	// fraction of pixels equal to the most common colour.
	counts := map[color.RGBA]int{}
	for y := 0; y < 300; y++ {
		for x := 0; x < 200; x++ {
			counts[img.RGBAAt(x, y)]++
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/float64(200*300) < 0.4 {
		t.Fatalf("screenshot background not dominant: %f", float64(max)/float64(200*300))
	}
}

func TestScreenshotVsTemplateDistinguishable(t *testing.T) {
	// Screenshots have a dominant flat background colour; procedural meme
	// templates (gradient backgrounds) do not. This is the structural property
	// the screenshot classifier's features exploit.
	dominance := func(img *image.RGBA) float64 {
		b := img.Bounds()
		counts := map[color.RGBA]int{}
		for y := b.Min.Y; y < b.Max.Y; y++ {
			for x := b.Min.X; x < b.Max.X; x++ {
				counts[img.RGBAAt(x, y)]++
			}
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(b.Dx()*b.Dy())
	}
	sDom, tDom := 0.0, 0.0
	const n = 10
	for i := 0; i < n; i++ {
		sDom += dominance(Screenshot(int64(i), 128, 128))
		tDom += dominance(Template(int64(i)))
	}
	if sDom <= tDom {
		t.Fatalf("screenshot background dominance (%f) should exceed template dominance (%f)", sDom/n, tDom/n)
	}
}

func TestAdjustBrightnessContrastClamps(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 2, 2))
	img.SetRGBA(0, 0, color.RGBA{R: 250, G: 250, B: 250, A: 255})
	img.SetRGBA(1, 1, color.RGBA{R: 5, G: 5, B: 5, A: 255})
	AdjustBrightnessContrast(img, 100, 1.5)
	c := img.RGBAAt(0, 0)
	if c.R != 255 || c.G != 255 || c.B != 255 {
		t.Fatalf("expected clamp to 255, got %+v", c)
	}
	AdjustBrightnessContrast(img, -300, 1)
	c = img.RGBAAt(1, 1)
	if c.R != 0 {
		t.Fatalf("expected clamp to 0, got %+v", c)
	}
}

func TestAddNoiseBounded(t *testing.T) {
	img := Template(9)
	rng := rand.New(rand.NewSource(1))
	AddNoise(img, rng, 10)
	// All pixel values remain valid bytes by construction; just ensure alpha
	// is untouched.
	for i := 3; i < len(img.Pix); i += 4 {
		if img.Pix[i] != 255 {
			t.Fatal("noise must not modify alpha")
		}
	}
}

func TestCropAndRescalePreservesDimensions(t *testing.T) {
	img := Template(11)
	rng := rand.New(rand.NewSource(2))
	out := CropAndRescale(img, rng, 0.1)
	if out.Bounds() != img.Bounds() {
		t.Fatalf("crop changed bounds: %v vs %v", out.Bounds(), img.Bounds())
	}
}

func TestClampByteProperty(t *testing.T) {
	f := func(v float64) bool {
		b := clampByte(v)
		return b <= 255
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLerpColorEndpoints(t *testing.T) {
	a := color.RGBA{R: 10, G: 20, B: 30, A: 255}
	b := color.RGBA{R: 200, G: 210, B: 220, A: 255}
	if got := lerpColor(a, b, 0); got != a {
		t.Fatalf("lerp at 0 = %+v, want %+v", got, a)
	}
	got := lerpColor(a, b, 1)
	if got.R != b.R || got.G != b.G || got.B != b.B {
		t.Fatalf("lerp at 1 = %+v, want %+v", got, b)
	}
}
