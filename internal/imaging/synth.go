// Package imaging procedurally synthesises meme-like images and applies the
// perturbations (crops, noise, brightness shifts, text-box overlays) that the
// paper's real-world corpus exhibits between variants of the same meme.
//
// The paper worked with 160M crawled images; this repository cannot ship
// those, so imaging provides a deterministic substitute: every meme
// "template" is a procedurally drawn scene seeded by a template identifier,
// and variants are derived from the template by composable transformations
// that preserve perceptual similarity (small pHash distance) while distinct
// templates are perceptually far apart. This preserves exactly the property
// the pipeline depends on.
package imaging

import (
	"image"
	"image/color"
	"math"
	"math/rand"
)

// DefaultSize is the side length, in pixels, of generated template images.
const DefaultSize = 128

// Template procedurally renders a meme template image identified by seed.
// The same seed always produces the same image. Different seeds produce
// images that are, with overwhelming probability, perceptually distant.
func Template(seed int64) *image.RGBA {
	return TemplateSized(seed, DefaultSize, DefaultSize)
}

// TemplateSized renders a template with explicit dimensions.
func TemplateSized(seed int64, w, h int) *image.RGBA {
	rng := rand.New(rand.NewSource(seed))
	img := image.NewRGBA(image.Rect(0, 0, w, h))

	// Background: a smooth two-colour diagonal gradient.
	c1 := randColor(rng)
	c2 := randColor(rng)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			t := (float64(x)/float64(w) + float64(y)/float64(h)) / 2
			img.SetRGBA(x, y, lerpColor(c1, c2, t))
		}
	}

	// Foreground structure: a handful of large geometric shapes. Their
	// placement dominates the low-frequency DCT coefficients, so different
	// seeds yield different pHashes.
	shapes := 3 + rng.Intn(4)
	for s := 0; s < shapes; s++ {
		sc := randColor(rng)
		switch rng.Intn(3) {
		case 0:
			cx := rng.Intn(w)
			cy := rng.Intn(h)
			r := w/8 + rng.Intn(w/4)
			fillCircle(img, cx, cy, r, sc)
		case 1:
			x0 := rng.Intn(w)
			y0 := rng.Intn(h)
			bw := w/6 + rng.Intn(w/3)
			bh := h/6 + rng.Intn(h/3)
			fillRect(img, x0, y0, x0+bw, y0+bh, sc)
		default:
			x0 := rng.Intn(w)
			y0 := rng.Intn(h)
			x1 := rng.Intn(w)
			y1 := rng.Intn(h)
			thickness := 2 + rng.Intn(6)
			drawThickLine(img, x0, y0, x1, y1, thickness, sc)
		}
	}

	// Horizontal banding reminiscent of macro-text regions.
	if rng.Float64() < 0.7 {
		bandH := h / 8
		bandColor := color.RGBA{R: 245, G: 245, B: 245, A: 255}
		if rng.Float64() < 0.5 {
			bandColor = color.RGBA{R: 15, G: 15, B: 15, A: 255}
		}
		fillRect(img, 0, 0, w, bandH, bandColor)
		fillRect(img, 0, h-bandH, w, h, bandColor)
	}
	return img
}

// Variant derives a perturbed variant of a base image. variantSeed controls
// which perturbations are applied; strength in (0, 1] scales their magnitude.
// Small strengths (<= 0.35) keep the variant within the pipeline's clustering
// threshold of the base image for the vast majority of seeds.
func Variant(base *image.RGBA, variantSeed int64, strength float64) *image.RGBA {
	if strength <= 0 {
		strength = 0.1
	}
	if strength > 1 {
		strength = 1
	}
	rng := rand.New(rand.NewSource(variantSeed))
	img := cloneRGBA(base)

	// Brightness / contrast jitter.
	if rng.Float64() < 0.8 {
		delta := (rng.Float64()*2 - 1) * 40 * strength
		gain := 1 + (rng.Float64()*2-1)*0.2*strength
		AdjustBrightnessContrast(img, delta, gain)
	}
	// Gaussian-ish pixel noise.
	if rng.Float64() < 0.7 {
		AddNoise(img, rng, 18*strength)
	}
	// Small overlay box (e.g. added caption or watermark).
	if rng.Float64() < 0.6 {
		b := img.Bounds()
		bw := int(float64(b.Dx()) * (0.1 + 0.15*strength*rng.Float64()))
		bh := int(float64(b.Dy()) * (0.05 + 0.1*strength*rng.Float64()))
		x0 := rng.Intn(maxInt(b.Dx()-bw, 1))
		y0 := rng.Intn(maxInt(b.Dy()-bh, 1))
		fillRect(img, x0, y0, x0+bw, y0+bh, randColor(rng))
	}
	// Slight crop-and-rescale.
	if rng.Float64() < 0.5 {
		img = CropAndRescale(img, rng, 0.05*strength)
	}
	return img
}

// Screenshot renders a synthetic social-network screenshot: a mostly flat
// light background, uniform margins, and rows of dark horizontal "text"
// lines with an avatar block. These are the structural features the
// screenshot classifier keys on.
func Screenshot(seed int64, w, h int) *image.RGBA {
	rng := rand.New(rand.NewSource(seed))
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	bg := color.RGBA{R: 252, G: 252, B: 254, A: 255}
	if rng.Float64() < 0.3 { // dark-mode screenshot
		bg = color.RGBA{R: 22, G: 24, B: 28, A: 255}
	}
	fillRect(img, 0, 0, w, h, bg)

	textColor := color.RGBA{R: 40, G: 42, B: 48, A: 255}
	if bg.R < 128 {
		textColor = color.RGBA{R: 220, G: 222, B: 228, A: 255}
	}
	// Avatar block.
	avatar := randColor(rng)
	avSize := h / 10
	fillRect(img, w/20, h/20, w/20+avSize, h/20+avSize, avatar)

	// Header line next to the avatar.
	fillRect(img, w/20+avSize+4, h/20+avSize/4, w/2, h/20+avSize/4+3, textColor)

	// Body text lines: thin horizontal bars with ragged right edges.
	y := h/20 + avSize + h/20
	lineH := maxInt(h/40, 2)
	for y < h-h/10 {
		lineW := int(float64(w) * (0.55 + 0.4*rng.Float64()))
		fillRect(img, w/20, y, w/20+lineW, y+lineH, textColor)
		y += lineH * 3
		if rng.Float64() < 0.15 {
			y += lineH * 3 // paragraph break
		}
	}
	// Engagement bar at the bottom.
	fillRect(img, w/20, h-h/12, w-w/20, h-h/12+2, color.RGBA{R: 150, G: 150, B: 160, A: 255})
	return img
}

// AdjustBrightnessContrast applies v' = (v-128)*gain + 128 + delta, clamped,
// to every channel of img in place.
func AdjustBrightnessContrast(img *image.RGBA, delta, gain float64) {
	p := img.Pix
	for i := 0; i < len(p); i += 4 {
		for c := 0; c < 3; c++ {
			v := (float64(p[i+c])-128)*gain + 128 + delta
			p[i+c] = clampByte(v)
		}
	}
}

// AddNoise adds zero-mean noise with the given standard deviation to every
// pixel of img in place.
func AddNoise(img *image.RGBA, rng *rand.Rand, stddev float64) {
	p := img.Pix
	for i := 0; i < len(p); i += 4 {
		n := rng.NormFloat64() * stddev
		for c := 0; c < 3; c++ {
			p[i+c] = clampByte(float64(p[i+c]) + n)
		}
	}
}

// CropAndRescale crops up to frac of each border (chosen randomly) and
// rescales back to the original dimensions with nearest-neighbour sampling.
func CropAndRescale(img *image.RGBA, rng *rand.Rand, frac float64) *image.RGBA {
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	cx0 := int(float64(w) * frac * rng.Float64())
	cy0 := int(float64(h) * frac * rng.Float64())
	cx1 := w - int(float64(w)*frac*rng.Float64())
	cy1 := h - int(float64(h)*frac*rng.Float64())
	if cx1-cx0 < 8 || cy1-cy0 < 8 {
		return cloneRGBA(img)
	}
	out := image.NewRGBA(image.Rect(0, 0, w, h))
	cw, ch := cx1-cx0, cy1-cy0
	for y := 0; y < h; y++ {
		sy := cy0 + y*ch/h
		for x := 0; x < w; x++ {
			sx := cx0 + x*cw/w
			out.SetRGBA(x, y, img.RGBAAt(sx, sy))
		}
	}
	return out
}

func cloneRGBA(src *image.RGBA) *image.RGBA {
	dst := image.NewRGBA(src.Bounds())
	copy(dst.Pix, src.Pix)
	return dst
}

func fillRect(img *image.RGBA, x0, y0, x1, y1 int, c color.RGBA) {
	b := img.Bounds()
	if x0 < b.Min.X {
		x0 = b.Min.X
	}
	if y0 < b.Min.Y {
		y0 = b.Min.Y
	}
	if x1 > b.Max.X {
		x1 = b.Max.X
	}
	if y1 > b.Max.Y {
		y1 = b.Max.Y
	}
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			img.SetRGBA(x, y, c)
		}
	}
}

func fillCircle(img *image.RGBA, cx, cy, r int, c color.RGBA) {
	b := img.Bounds()
	for y := cy - r; y <= cy+r; y++ {
		if y < b.Min.Y || y >= b.Max.Y {
			continue
		}
		for x := cx - r; x <= cx+r; x++ {
			if x < b.Min.X || x >= b.Max.X {
				continue
			}
			dx, dy := x-cx, y-cy
			if dx*dx+dy*dy <= r*r {
				img.SetRGBA(x, y, c)
			}
		}
	}
}

func drawThickLine(img *image.RGBA, x0, y0, x1, y1, thickness int, c color.RGBA) {
	dx := float64(x1 - x0)
	dy := float64(y1 - y0)
	length := math.Hypot(dx, dy)
	if length < 1 {
		fillRect(img, x0-thickness, y0-thickness, x0+thickness, y0+thickness, c)
		return
	}
	steps := int(length)
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		px := x0 + int(t*dx)
		py := y0 + int(t*dy)
		fillRect(img, px-thickness/2, py-thickness/2, px+thickness/2+1, py+thickness/2+1, c)
	}
}

func randColor(rng *rand.Rand) color.RGBA {
	return color.RGBA{
		R: uint8(rng.Intn(256)),
		G: uint8(rng.Intn(256)),
		B: uint8(rng.Intn(256)),
		A: 255,
	}
}

func lerpColor(a, b color.RGBA, t float64) color.RGBA {
	return color.RGBA{
		R: uint8(float64(a.R) + (float64(b.R)-float64(a.R))*t),
		G: uint8(float64(a.G) + (float64(b.G)-float64(a.G))*t),
		B: uint8(float64(a.B) + (float64(b.B)-float64(a.B))*t),
		A: 255,
	}
}

func clampByte(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
