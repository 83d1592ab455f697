package phash

import (
	"fmt"
	"image"
	"math/rand"
	"testing"
)

// imageKinds names every representation FromImage has a conversion loop
// for; "opaque" hides an *image.RGBA behind the generic color.RGBAModel
// path.
var imageKinds = []string{"gray", "rgba", "nrgba", "ycbcr420", "ycbcr444", "opaque"}

// kindImage builds a w x h image of the named kind filled with seeded
// noise. NRGBA alpha is random, so partial alpha is covered. With sub, the
// image is cut from a larger one so its Bounds().Min is non-zero.
func kindImage(kind string, w, h int, seed int64, sub bool) image.Image {
	rng := rand.New(rand.NewSource(seed))
	fill := func(p []uint8) {
		for i := range p {
			p[i] = uint8(rng.Intn(256))
		}
	}
	r := image.Rect(0, 0, w, h)
	if sub {
		r = image.Rect(-3, 2, w+4, h+7)
	}
	var img interface {
		image.Image
		SubImage(image.Rectangle) image.Image
	}
	switch kind {
	case "gray":
		m := image.NewGray(r)
		fill(m.Pix)
		img = m
	case "rgba", "opaque":
		m := image.NewRGBA(r)
		fill(m.Pix)
		for i := 3; i < len(m.Pix); i += 4 {
			m.Pix[i] = 0xff
		}
		img = m
	case "nrgba":
		m := image.NewNRGBA(r)
		fill(m.Pix)
		img = m
	case "ycbcr420", "ycbcr444":
		ratio := image.YCbCrSubsampleRatio420
		if kind == "ycbcr444" {
			ratio = image.YCbCrSubsampleRatio444
		}
		m := image.NewYCbCr(r, ratio)
		fill(m.Y)
		fill(m.Cb)
		fill(m.Cr)
		img = m
	default:
		panic("unknown image kind " + kind)
	}
	var out image.Image = img
	if sub {
		out = img.SubImage(image.Rect(1, 5, w+1, h+5))
	}
	if kind == "opaque" {
		out = opaque{out}
	}
	return out
}

// fullFrameHash is the definition FromImage is held to: every pixel
// converted by toGray, the whole matrix resized, the full DCT and a sorted
// median (fromGrayReference). Luma is the generic color.RGBAModel
// conversion's, except for *image.Gray, whose luma is its gray level.
func fullFrameHash(img image.Image) Hash {
	if _, ok := img.(*image.Gray); !ok {
		img = opaque{img}
	}
	g := toGray(img)
	return fromGrayReference(g.pix, g.w, g.h)
}

// TestFromImageSampledMatchesFullFrame requires the sampled hash path to
// equal the full-frame definition for every image kind, at sizes on both
// sides of the 32-pixel output, degenerate strips, and with a non-zero
// bounds origin.
func TestFromImageSampledMatchesFullFrame(t *testing.T) {
	sizes := [][2]int{{1, 1}, {2, 300}, {31, 31}, {32, 32}, {33, 33}, {65, 17}, {128, 128}, {320, 200}, {1000, 3}}
	for k, kind := range imageKinds {
		for s, sz := range sizes {
			for _, sub := range []bool{false, true} {
				img := kindImage(kind, sz[0], sz[1], int64(100*k+s), sub)
				if b := img.Bounds(); b.Dx() != sz[0] || b.Dy() != sz[1] || (sub && b.Min == image.Point{}) {
					t.Fatalf("%s %v sub=%v: bounds %v", kind, sz, sub, b)
				}
				got, err := FromImage(img)
				if err != nil {
					t.Fatal(err)
				}
				if want := fullFrameHash(img); got != want {
					t.Errorf("%s %dx%d sub=%v: sampled %s != full-frame %s", kind, sz[0], sz[1], sub, got, want)
				}
			}
		}
	}
}

// FuzzFromImageSampled searches sizes, contents and kinds for an image
// whose sampled hash differs from the full-frame definition.
func FuzzFromImageSampled(f *testing.F) {
	f.Add(uint16(33), uint16(33), int64(1), uint8(0))
	f.Add(uint16(1000), uint16(3), int64(2), uint8(4))
	f.Add(uint16(1), uint16(77), int64(3), uint8(11))
	f.Fuzz(func(t *testing.T, w, h uint16, seed int64, kind uint8) {
		iw, ih := 1+int(w)%700, 1+int(h)%700
		name := imageKinds[int(kind)%len(imageKinds)]
		sub := kind >= 128
		img := kindImage(name, iw, ih, seed, sub)
		got, err := FromImage(img)
		if err != nil {
			t.Fatal(err)
		}
		if want := fullFrameHash(img); got != want {
			t.Fatalf("%s %dx%d sub=%v seed %d: sampled %s != full-frame %s", name, iw, ih, sub, seed, got, want)
		}
	})
}

// goldenKindImages are the per-kind images TestGoldenHashes pins, each at a
// size other than the corpus's 128x128.
func goldenKindImages() map[string]image.Image {
	out := map[string]image.Image{}
	for i, s := range []struct {
		kind string
		w, h int
	}{{"gray", 200, 150}, {"rgba", 75, 333}, {"nrgba", 150, 100}, {"ycbcr420", 257, 129}, {"ycbcr444", 90, 45}} {
		out[fmt.Sprintf("%s_%dx%d", s.kind, s.w, s.h)] = kindImage(s.kind, s.w, s.h, int64(i+1), false)
	}
	return out
}
