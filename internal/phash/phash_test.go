package phash

import (
	"bytes"
	"encoding"
	"fmt"
	"image"
	"image/color"
	"math/rand"
	"testing"
	"testing/quick"
)

// gradientImage builds a simple deterministic RGBA image for hashing tests.
func gradientImage(w, h int, phase float64) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := uint8((float64(x)/float64(w)*200 + float64(y)/float64(h)*55 + phase))
			img.SetRGBA(x, y, color.RGBA{R: v, G: v / 2, B: 255 - v, A: 255})
		}
	}
	return img
}

// blockImage builds an image out of large random blocks; different seeds give
// perceptually distinct images.
func blockImage(seed int64, w, h int) *image.RGBA {
	rng := rand.New(rand.NewSource(seed))
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	const blocks = 8
	bw, bh := w/blocks, h/blocks
	for by := 0; by < blocks; by++ {
		for bx := 0; bx < blocks; bx++ {
			c := color.RGBA{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256)), A: 255}
			for y := by * bh; y < (by+1)*bh; y++ {
				for x := bx * bw; x < (bx+1)*bw; x++ {
					img.SetRGBA(x, y, c)
				}
			}
		}
	}
	return img
}

func TestFromImageDeterministic(t *testing.T) {
	img := gradientImage(100, 80, 3)
	h1, err := FromImage(img)
	if err != nil {
		t.Fatalf("FromImage: %v", err)
	}
	h2, err := FromImage(img)
	if err != nil {
		t.Fatalf("FromImage: %v", err)
	}
	if h1 != h2 {
		t.Fatalf("hash not deterministic: %v vs %v", h1, h2)
	}
}

func TestFromImageNilAndEmpty(t *testing.T) {
	if _, err := FromImage(nil); err == nil {
		t.Fatal("expected error for nil image")
	}
	empty := image.NewRGBA(image.Rect(0, 0, 0, 0))
	if _, err := FromImage(empty); err == nil {
		t.Fatal("expected error for empty image")
	}
}

func TestIdenticalImagesSameHash(t *testing.T) {
	a := blockImage(42, 128, 128)
	b := blockImage(42, 128, 128)
	ha, _ := FromImage(a)
	hb, _ := FromImage(b)
	if Distance(ha, hb) != 0 {
		t.Fatalf("identical images should have distance 0, got %d", Distance(ha, hb))
	}
}

func TestSimilarImagesLowDistance(t *testing.T) {
	base := blockImage(7, 128, 128)
	hb, _ := FromImage(base)

	// Brightness-shifted copy.
	bright := image.NewRGBA(base.Bounds())
	copy(bright.Pix, base.Pix)
	for i := 0; i < len(bright.Pix); i += 4 {
		for c := 0; c < 3; c++ {
			v := int(bright.Pix[i+c]) + 15
			if v > 255 {
				v = 255
			}
			bright.Pix[i+c] = uint8(v)
		}
	}
	hBright, _ := FromImage(bright)
	if d := Distance(hb, hBright); d > 8 {
		t.Errorf("brightness shift moved hash too far: distance %d", d)
	}

	// Resized copy (nearest neighbour downscale).
	small := image.NewRGBA(image.Rect(0, 0, 64, 64))
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			small.SetRGBA(x, y, base.RGBAAt(x*2, y*2))
		}
	}
	hSmall, _ := FromImage(small)
	if d := Distance(hb, hSmall); d > 10 {
		t.Errorf("downscaling moved hash too far: distance %d", d)
	}
}

func TestDistinctImagesHighDistance(t *testing.T) {
	far := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		a := blockImage(int64(1000+i), 128, 128)
		b := blockImage(int64(5000+i), 128, 128)
		ha, _ := FromImage(a)
		hb, _ := FromImage(b)
		if Distance(ha, hb) > 10 {
			far++
		}
	}
	if far < trials*8/10 {
		t.Fatalf("expected most distinct images to be far apart, got %d/%d", far, trials)
	}
}

func TestDistanceProperties(t *testing.T) {
	f := func(a, b uint64) bool {
		ha, hb := Hash(a), Hash(b)
		d := Distance(ha, hb)
		if d < 0 || d > MaxDistance {
			return false
		}
		if Distance(hb, ha) != d { // symmetry
			return false
		}
		if Distance(ha, ha) != 0 { // identity
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(a, b, c uint64) bool {
		ha, hb, hc := Hash(a), Hash(b), Hash(c)
		return Distance(ha, hc) <= Distance(ha, hb)+Distance(hb, hc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		h := Hash(v)
		parsed, err := Parse(h.String())
		return err == nil && parsed == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAppendTextMatchesSprintf pins AppendText, and String and MarshalText
// through it, to fmt's %016x on the edges and on seeded random hashes, and
// holds it to zero allocations when the buffer has room.
func TestAppendTextMatchesSprintf(t *testing.T) {
	var _ encoding.TextAppender = Hash(0)
	hashes := []Hash{0, 1, 1 << 63, ^Hash(0)}
	rng := rand.New(rand.NewSource(46))
	for range 10000 {
		hashes = append(hashes, Hash(rng.Uint64()))
	}
	for _, h := range hashes {
		want := fmt.Sprintf("%016x", uint64(h))
		got, err := h.AppendText([]byte("prefix:"))
		if err != nil || string(got) != "prefix:"+want {
			t.Fatalf("AppendText(%#x) = %q, %v; want %q", uint64(h), got, err, "prefix:"+want)
		}
		if s := h.String(); s != want {
			t.Fatalf("String(%#x) = %q, want %q", uint64(h), s, want)
		}
		if text, err := h.MarshalText(); err != nil || !bytes.Equal(text, []byte(want)) {
			t.Fatalf("MarshalText(%#x) = %q, %v; want %q", uint64(h), text, err, want)
		}
	}
	buf := make([]byte, 0, 16)
	h := hashes[len(hashes)-1]
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = h.AppendText(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendText into a buffer with room allocates %.0f times", allocs)
	}
}

func TestParseKnownValue(t *testing.T) {
	// Hash string taken from the paper's cluster N example.
	h, err := Parse("55352b0b8d8b5b53")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if h.String() != "55352b0b8d8b5b53" {
		t.Fatalf("round trip mismatch: %s", h.String())
	}
	h2, err := Parse("55952b0bb58b5353")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d := Distance(h, h2); d <= 0 || d > 12 {
		t.Fatalf("paper example hashes should be near but not identical, got %d", d)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "zzzz", "0123456789abcdef0", "not a hash"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestBinaryMarshalRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		h := Hash(v)
		data, err := h.MarshalBinary()
		if err != nil || len(data) != 8 {
			return false
		}
		var h2 Hash
		if err := h2.UnmarshalBinary(data); err != nil {
			return false
		}
		return h2 == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	var h Hash
	if err := h.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error for short binary input")
	}
}

func TestTextMarshalRoundTrip(t *testing.T) {
	h := Hash(0xdeadbeefcafe1234)
	data, err := h.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var h2 Hash
	if err := h2.UnmarshalText(data); err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Fatalf("text round trip mismatch: %v vs %v", h2, h)
	}
	if err := h2.UnmarshalText([]byte("xyz")); err == nil {
		t.Fatal("expected error for invalid text")
	}
}

func TestSimilar(t *testing.T) {
	a := Hash(0)
	b := Hash(0b1111)
	if !Similar(a, b, 4) {
		t.Error("distance 4 should be similar at threshold 4")
	}
	if Similar(a, b, 3) {
		t.Error("distance 4 should not be similar at threshold 3")
	}
}

func TestFromGrayMatchesFromImage(t *testing.T) {
	img := blockImage(11, 96, 96)
	hImg, err := FromImage(img)
	if err != nil {
		t.Fatal(err)
	}
	// Build the same luminance matrix manually.
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	pix := make([]float64, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := img.RGBAAt(x, y)
			pix[y*w+x] = 0.299*float64(c.R) + 0.587*float64(c.G) + 0.114*float64(c.B)
		}
	}
	hGray, err := fromGray(pix, w, h)
	if err != nil {
		t.Fatal(err)
	}
	if d := Distance(hImg, hGray); d > 2 {
		t.Fatalf("FromGray should closely match FromImage, distance %d", d)
	}
}

func TestFromGrayInvalid(t *testing.T) {
	if _, err := fromGray(nil, 0, 0); err == nil {
		t.Error("expected error for empty matrix")
	}
	if _, err := fromGray(make([]float64, 10), 3, 4); err == nil {
		t.Error("expected error for mismatched dimensions")
	}
}

func TestGrayImageFastPath(t *testing.T) {
	g := image.NewGray(image.Rect(0, 0, 64, 64))
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			g.SetGray(x, y, color.Gray{Y: uint8((x*4 + y) % 256)})
		}
	}
	h1, err := FromImage(g)
	if err != nil {
		t.Fatal(err)
	}
	// Same content as generic image via RGBA conversion.
	rgba := image.NewRGBA(g.Bounds())
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			v := g.GrayAt(x, y).Y
			rgba.SetRGBA(x, y, color.RGBA{R: v, G: v, B: v, A: 255})
		}
	}
	h2, err := FromImage(rgba)
	if err != nil {
		t.Fatal(err)
	}
	if d := Distance(h1, h2); d > 2 {
		t.Fatalf("gray fast path diverges from generic path: distance %d", d)
	}
}

func TestDCTConstantImage(t *testing.T) {
	pix := make([]float64, lowResSize*lowResSize)
	for i := range pix {
		pix[i] = 100
	}
	coeffs := dct2D(pix)
	// All energy should be in the DC coefficient.
	if coeffs[0] <= 0 {
		t.Fatalf("DC coefficient should be positive, got %f", coeffs[0])
	}
	for i := 1; i < len(coeffs); i++ {
		if coeffs[i] > 1e-6 || coeffs[i] < -1e-6 {
			t.Fatalf("non-DC coefficient %d should be ~0, got %g", i, coeffs[i])
		}
	}
}

func TestMedianExcludingFirst(t *testing.T) {
	vals := []float64{999, 1, 2, 3, 4, 5} // first excluded
	if got := medianExcludingFirst(vals); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	vals2 := []float64{999, 4, 1, 3, 2} // even count after exclusion
	if got := medianExcludingFirst(vals2); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestResizeBilinearIdentity(t *testing.T) {
	pix := []float64{1, 2, 3, 4}
	out := resizeBilinear(grayMatrix{w: 2, h: 2, pix: pix}, 2, 2)
	for i := range pix {
		if out[i] != pix[i] {
			t.Fatalf("identity resize changed pixel %d: %v", i, out[i])
		}
	}
}

func TestResizeBilinearRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pix := make([]float64, 50*40)
	for i := range pix {
		pix[i] = rng.Float64() * 255
	}
	out := resizeBilinear(grayMatrix{w: 50, h: 40, pix: pix}, 32, 32)
	if len(out) != 32*32 {
		t.Fatalf("unexpected output length %d", len(out))
	}
	for i, v := range out {
		if v < 0 || v > 255 {
			t.Fatalf("interpolated value out of range at %d: %v", i, v)
		}
	}
}
