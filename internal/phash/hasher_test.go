package phash

import (
	"fmt"
	"image"
	"image/color"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"github.com/memes-pipeline/memes/internal/imaging"
)

// TestGoldenHashes pins the exact hash of a fixed synthetic image set. The
// values were computed with the pre-pruning full-DCT implementation, so any
// drift in the pruned DCT, the pooled scratch, the median selection, the
// sampled conversion, or the grayscale fast paths fails this test.
func TestGoldenHashes(t *testing.T) {
	golden := []struct {
		name string
		want string
	}{
		{"template_1", "c30b35b3476dba11"},
		{"template_2", "299649d66936c967"},
		{"template_3", "660103fdfc0303ff"},
		{"template_4", "ad696a5392a9495b"},
		{"template_5", "c07e644e27b098df"},
		{"template_6", "9595950a6a2ab59f"},
		{"template_7", "a5f8b50a050ab5fb"},
		{"template_8", "c399646598996767"},
		{"variant_1", "c30b35b3476dba11"},
		{"variant_2", "299649d66936c967"},
		{"variant_3", "560503ddfc0303ff"},
		{"variant_4", "ac2d6a5392a9495f"},
		{"screenshot_1", "6c597c03b60349fd"},
		{"screenshot_2", "4353d2ac2cfc3e0b"},
		{"screenshot_3", "d6adb44b520329f5"},
		{"screenshot_4", "a1ad03f45efcac03"},
		// One image per conversion loop at a size other than 128x128,
		// pinned before the sampled conversion replaced the full-frame one.
		{"gray_200x150", "ad2d310e5c65558f"},
		{"rgba_75x333", "47bf6a520da25c93"},
		{"nrgba_150x100", "cab0005e3f3fd22d"},
		{"ycbcr420_257x129", "71f2aa476e3409b5"},
		{"ycbcr444_90x45", "557fe70265688555"},
	}
	images := map[string]image.Image{}
	for seed := int64(1); seed <= 8; seed++ {
		images[golden[seed-1].name] = imaging.Template(seed)
	}
	for seed := int64(1); seed <= 4; seed++ {
		images[golden[7+seed].name] = imaging.Variant(imaging.Template(seed), seed*10+3, 0.3)
		images[golden[11+seed].name] = imaging.Screenshot(seed, 320, 200)
	}
	for name, img := range goldenKindImages() {
		images[name] = img
	}
	for _, g := range golden {
		h, err := FromImage(images[g.name])
		if err != nil {
			t.Fatalf("%s: FromImage: %v", g.name, err)
		}
		if h.String() != g.want {
			t.Errorf("%s: hash = %s, want %s", g.name, h, g.want)
		}
	}

	grayGolden := []struct {
		want string
	}{
		{"c30779c5dd06ea15"},
		{"5d28bec4b66f2609"},
		{"dca16ff356d5000d"},
		{"4e3249dbc34762b3"},
	}
	rng := rand.New(rand.NewSource(7))
	for c, g := range grayGolden {
		w, h := 40+rng.Intn(100), 40+rng.Intn(100)
		pix := make([]float64, w*h)
		for i := range pix {
			pix[i] = rng.Float64() * 255
		}
		hv, err := fromGray(pix, w, h)
		if err != nil {
			t.Fatalf("gray_%d: fromGray: %v", c, err)
		}
		if hv.String() != g.want {
			t.Errorf("gray_%d (%dx%d): hash = %s, want %s", c, w, h, hv, g.want)
		}
	}
}

// fromGray hashes a grayscale matrix given in row-major order through the
// same pooled hasher FromImage uses, skipping only FromImage's pixel
// sampling: the entry point for tests that feed the DCT core a matrix.
func fromGray(pix []float64, w, h int) (Hash, error) {
	if w <= 0 || h <= 0 || len(pix) != w*h {
		return 0, fmt.Errorf("phash: invalid gray matrix %dx%d with %d pixels", w, h, len(pix))
	}
	hs := hasherPool.Get().(*hasher)
	defer hasherPool.Put(hs)
	hs.xs.init(w, lowResSize, false)
	hs.ys.init(h, lowResSize, false)
	return hs.hash(pix, w), nil
}

// fromGrayReference replicates the historical hash path — full 32x32 2-D
// DCT, block copy, insertion-sorted median — with fresh allocations per
// call. The pruned pooled implementation must match it bit for bit.
func fromGrayReference(pix []float64, w, h int) Hash {
	small := resizeBilinear(grayMatrix{w: w, h: h, pix: pix}, lowResSize, lowResSize)
	coeffs := dct2D(small)
	var block [dctBlock * dctBlock]float64
	for y := 0; y < dctBlock; y++ {
		for x := 0; x < dctBlock; x++ {
			block[y*dctBlock+x] = coeffs[y*lowResSize+x]
		}
	}
	tmp := make([]float64, len(block)-1)
	copy(tmp, block[1:])
	sort.Float64s(tmp)
	n := len(tmp)
	med := tmp[n/2] // 63 values: odd
	var out Hash
	for i, v := range block {
		if v > med {
			out |= 1 << uint(i)
		}
	}
	return out
}

// TestFromGrayMatchesReference is the old-vs-new equivalence property: over
// random gray matrices of random sizes, the pruned zero-allocation path and
// the full-DCT reference produce bit-identical hashes.
func TestFromGrayMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		w, h := 1+rng.Intn(200), 1+rng.Intn(200)
		pix := make([]float64, w*h)
		for i := range pix {
			pix[i] = rng.Float64() * 255
		}
		got, err := fromGray(pix, w, h)
		if err != nil {
			t.Fatalf("trial %d (%dx%d): %v", trial, w, h, err)
		}
		if want := fromGrayReference(pix, w, h); got != want {
			t.Fatalf("trial %d (%dx%d): pruned hash %s != reference %s", trial, w, h, got, want)
		}
	}
}

// opaque hides an image's concrete type so sampleGray takes the generic
// color.RGBAModel path, giving the fast paths something to be compared
// against.
type opaque struct{ image.Image }

func grayEqual(t *testing.T, img image.Image, label string) {
	t.Helper()
	fast := toGray(img).pix
	generic := toGray(opaque{img}).pix
	for i := range fast {
		if fast[i] != generic[i] {
			t.Fatalf("%s: luminance diverges at pixel %d: fast %v, generic %v", label, i, fast[i], generic[i])
		}
	}
	hFast, err := FromImage(img)
	if err != nil {
		t.Fatal(err)
	}
	hGeneric, err := FromImage(opaque{img})
	if err != nil {
		t.Fatal(err)
	}
	if hFast != hGeneric {
		t.Fatalf("%s: fast-path hash %s != generic-path hash %s", label, hFast, hGeneric)
	}
}

// TestNRGBAFastPathMatchesGeneric pins the *image.NRGBA loop (including
// alpha premultiplication) against the generic color-model path.
func TestNRGBAFastPathMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	img := image.NewNRGBA(image.Rect(0, 0, 73, 41))
	for y := 0; y < 41; y++ {
		for x := 0; x < 73; x++ {
			img.SetNRGBA(x, y, color.NRGBA{
				R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)),
				B: uint8(rng.Intn(256)), A: uint8(rng.Intn(256)), // incl. partial alpha
			})
		}
	}
	grayEqual(t, img, "nrgba")
	// Fully opaque is the common real-world case.
	for i := 3; i < len(img.Pix); i += 4 {
		img.Pix[i] = 0xff
	}
	grayEqual(t, img, "nrgba-opaque")
}

// TestLuminanceDefinition checks the luma tables against BT.601 for every
// 8-bit triple: each product rounded on its own, summed left to right.
func TestLuminanceDefinition(t *testing.T) {
	for r := 0; r < 256; r++ {
		for g := 0; g < 256; g++ {
			for b := 0; b < 256; b++ {
				want := float64(0.299*float64(r)) + float64(0.587*float64(g)) + float64(0.114*float64(b))
				if got := luminance(uint8(r), uint8(g), uint8(b)); got != want {
					t.Fatalf("luminance(%d, %d, %d) = %v, want %v", r, g, b, got, want)
				}
			}
		}
	}
}

// TestYCbCrFastPathMatchesGeneric pins the *image.YCbCr loop (JPEG-style
// sources) against the generic path for every common subsample ratio.
func TestYCbCrFastPathMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, ratio := range []image.YCbCrSubsampleRatio{
		image.YCbCrSubsampleRatio444,
		image.YCbCrSubsampleRatio422,
		image.YCbCrSubsampleRatio420,
	} {
		img := image.NewYCbCr(image.Rect(0, 0, 64, 48), ratio)
		for i := range img.Y {
			img.Y[i] = uint8(rng.Intn(256))
		}
		for i := range img.Cb {
			img.Cb[i] = uint8(rng.Intn(256))
			img.Cr[i] = uint8(rng.Intn(256))
		}
		grayEqual(t, img, ratio.String())
	}
}

// TestHashPathZeroAllocs is the steady-state allocation contract: once the
// pool is warm, hashing allocates nothing for the concrete image types the
// corpora produce, and neither does the median selection.
func TestHashPathZeroAllocs(t *testing.T) {
	rgba := gradientImage(120, 90, 1)
	gray := image.NewGray(image.Rect(0, 0, 80, 60))
	nrgba := image.NewNRGBA(image.Rect(0, 0, 80, 60))
	ycbcr := image.NewYCbCr(image.Rect(0, 0, 80, 60), image.YCbCrSubsampleRatio420)
	pix := make([]float64, 100*70)
	for i := range pix {
		pix[i] = float64(i % 251)
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"FromImage/rgba", func() { FromImage(rgba) }},
		{"FromImage/gray", func() { FromImage(gray) }},
		{"FromImage/nrgba", func() { FromImage(nrgba) }},
		{"FromImage/ycbcr", func() { FromImage(ycbcr) }},
		{"fromGray", func() { fromGray(pix, 100, 70) }},
	}
	for _, c := range cases {
		c.fn() // warm the pool and grow the gray scratch
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s: %v allocs/run, want 0", c.name, n)
		}
	}
	var block [dctBlock * dctBlock]float64
	for i := range block {
		block[i] = float64((i * 37) % 64)
	}
	if n := testing.AllocsPerRun(100, func() { medianExcludingFirst(block[:]) }); n != 0 {
		t.Errorf("medianExcludingFirst: %v allocs/run, want 0", n)
	}

	// A hasher's scratch is fixed-size: a huge image neither allocates nor
	// leaves the hasher holding memory in proportion to it.
	if size := unsafe.Sizeof(hasher{}); size >= 64<<10 {
		t.Errorf("hasher is %d bytes, want < 64 KB", size)
	}
	huge := gradientImage(4000, 4000, 2)
	tiny := gradientImage(16, 16, 2)
	hugeThenTiny := func() { FromImage(huge); FromImage(tiny) }
	hugeThenTiny()
	if n := testing.AllocsPerRun(10, hugeThenTiny); n != 0 {
		t.Errorf("FromImage 4000x4000 then 16x16: %v allocs/run, want 0", n)
	}
	// Bytes are counted on one hasher outside the pool, which the race
	// detector empties at random.
	hs := new(hasher)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hs.hashImage(huge, 4000, 4000)
	hs.hashImage(tiny, 16, 16)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n != 0 {
		t.Errorf("hashing 4000x4000 then 16x16 allocated %d bytes, want 0", n)
	}
}

// TestDCTTableMatchesCos checks the committed cosine table against its
// definition: within an ulp of math.Cos everywhere, and bit for bit on
// amd64, whose math.Cos is not fused and produced the table.
func TestDCTTableMatchesCos(t *testing.T) {
	n := lowResSize
	table := dctTable()
	if len(table) != n*n {
		t.Fatalf("table has %d entries, want %d", len(table), n*n)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			want := math.Cos(math.Pi / float64(n) * (float64(i) + 0.5) * float64(k))
			got := table[k*n+i]
			if runtime.GOARCH == "amd64" && got != want {
				t.Fatalf("entry (%d, %d) = %v, math.Cos gives %v", k, i, got, want)
			}
			if ulp := math.Nextafter(want, math.Inf(1)) - want; math.Abs(got-want) > ulp {
				t.Fatalf("entry (%d, %d) = %v, more than an ulp from math.Cos %v", k, i, got, want)
			}
		}
	}
}

// TestMedianMatchesFullSort checks the partial-selection median against a
// full sort over random inputs, odd and even lengths alike.
func TestMedianMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(80)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
		}
		got := medianExcludingFirst(vals)
		sorted := append([]float64(nil), vals[1:]...)
		sort.Float64s(sorted)
		m := len(sorted)
		want := sorted[m/2]
		if m%2 == 0 {
			want = (sorted[m/2-1] + sorted[m/2]) / 2
		}
		if got != want {
			t.Fatalf("trial %d (n=%d): median %v, want %v", trial, n, got, want)
		}
	}
}
