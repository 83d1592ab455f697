// Package screenshot implements Step 4 of the pipeline: filtering
// social-network screenshots out of annotation-site image galleries.
//
// The paper trains a Keras CNN (Appendix C) on 28.8K labelled screenshots;
// stdlib-only Go cannot reasonably reproduce a convolutional network, so the
// classifier here is a small feed-forward neural network (one hidden layer
// with dropout, trained with SGD) over deterministic image-statistic
// features that capture the structural signature of screenshots: dominant
// flat background, uniform margins, horizontal text-line banding, and low
// colour diversity. The evaluation machinery (ROC curve, AUC, accuracy,
// precision, recall, F1) mirrors the paper's Figure 19 and the quoted
// metrics.
package screenshot

import (
	"image"
	"math"
)

// NumFeatures is the dimensionality of the feature vector extracted from an
// image.
const NumFeatures = 10

// Features computes the feature vector of an image. All features are scaled
// to roughly [0, 1] so the network trains without per-feature normalisation.
func Features(img image.Image) []float64 {
	var ex extractor
	return ex.features(img)
}

// extractor computes feature vectors, reusing one luminance plane across the
// images it is handed. The zero value is ready; it is not safe for
// concurrent use.
type extractor struct {
	gray []float64
}

// colorKeys is the number of quantised colours: 4 bits per channel.
const colorKeys = 1 << 12

func (ex *extractor) features(img image.Image) []float64 {
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	if w == 0 || h == 0 {
		return make([]float64, NumFeatures)
	}
	if cap(ex.gray) < w*h {
		ex.gray = make([]float64, w*h)
	}
	gray := ex.gray[:w*h]
	// colors counts the pixels of each quantised colour, for the dominance
	// and diversity estimates.
	var colors [colorKeys]int32
	if rgba, ok := img.(*image.RGBA); ok {
		// The 8-bit samples straight from Pix: what At(x, y).RGBA() yields
		// once its 16-bit widening is shifted back out, without boxing a
		// color.Color per pixel.
		for y := 0; y < h; y++ {
			row := rgba.Pix[rgba.PixOffset(b.Min.X, b.Min.Y+y):]
			for x := 0; x < w; x++ {
				r, g, bl := row[4*x], row[4*x+1], row[4*x+2]
				gray[y*w+x] = 0.299*float64(r) + 0.587*float64(g) + 0.114*float64(bl)
				colors[uint32(r>>4)<<8|uint32(g>>4)<<4|uint32(bl>>4)]++
			}
		}
	} else {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				r, g, bl, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
				r8, g8, b8 := float64(r>>8), float64(g>>8), float64(bl>>8)
				gray[y*w+x] = 0.299*r8 + 0.587*g8 + 0.114*b8
				colors[(r>>12<<8)|(g>>12<<4)|(bl>>12)]++
			}
		}
	}

	f := make([]float64, NumFeatures)
	f[0], f[1] = colorStatistics(&colors, w*h)
	f[2] = meanLuminance(gray)
	f[3] = luminanceVariance(gray)
	f[4] = horizontalEdgeDensity(gray, w, h)
	f[5] = verticalEdgeDensity(gray, w, h)
	f[6] = marginUniformity(gray, w, h)
	f[7] = rowBanding(gray, w, h)
	f[8] = extremePixelFraction(gray)
	f[9] = aspectRatioFeature(w, h)
	return f
}

// colorStatistics reads two features off the quantised-colour histogram of
// an image of the given pixel count. dominance is the fraction of pixels
// sharing the single most common colour: screenshots have large flat
// backgrounds. diversity is the number of distinct colours relative to a
// saturation constant: memes and photos use many more colours than UI
// screenshots.
func colorStatistics(colors *[colorKeys]int32, pixels int) (dominance, diversity float64) {
	var max int32
	distinct := 0
	for _, c := range colors {
		if c > max {
			max = c
		}
		if c > 0 {
			distinct++
		}
	}
	return float64(max) / float64(pixels), math.Min(float64(distinct)/512.0, 1)
}

func meanLuminance(gray []float64) float64 {
	s := 0.0
	for _, v := range gray {
		s += v
	}
	return s / float64(len(gray)) / 255.0
}

func luminanceVariance(gray []float64) float64 {
	m := 0.0
	for _, v := range gray {
		m += v
	}
	m /= float64(len(gray))
	va := 0.0
	for _, v := range gray {
		va += (v - m) * (v - m)
	}
	va /= float64(len(gray))
	// Scale: maximum possible variance is (255/2)^2.
	return math.Min(va/16256.25, 1)
}

// horizontalEdgeDensity measures the fraction of strong luminance
// transitions along rows (vertical edges in image terms); text produces many.
func horizontalEdgeDensity(gray []float64, w, h int) float64 {
	if w < 2 {
		return 0
	}
	edges := 0
	for y := 0; y < h; y++ {
		for x := 1; x < w; x++ {
			if math.Abs(gray[y*w+x]-gray[y*w+x-1]) > 40 {
				edges++
			}
		}
	}
	return float64(edges) / float64(h*(w-1))
}

// verticalEdgeDensity measures strong transitions along columns.
func verticalEdgeDensity(gray []float64, w, h int) float64 {
	if h < 2 {
		return 0
	}
	edges := 0
	for y := 1; y < h; y++ {
		for x := 0; x < w; x++ {
			if math.Abs(gray[y*w+x]-gray[(y-1)*w+x]) > 40 {
				edges++
			}
		}
	}
	return float64(edges) / float64(w*(h-1))
}

// marginUniformity measures how flat the outer 5% frame of the image is:
// screenshots have clean margins, memes usually do not.
func marginUniformity(gray []float64, w, h int) float64 {
	mx := w / 20
	my := h / 20
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
	if len(vals) == 0 {
		return 0
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
	// Low variance -> high uniformity.
	return 1 - math.Min(va/16256.25, 1)
}

// rowBanding captures the alternation of dark and light rows typical of text
// blocks: the normalised count of sign changes in mean row luminance.
func rowBanding(gray []float64, w, h int) float64 {
	if h < 3 {
		return 0
	}
	rowMeans := make([]float64, h)
	for y := 0; y < h; y++ {
		s := 0.0
		for x := 0; x < w; x++ {
			s += gray[y*w+x]
		}
		rowMeans[y] = s / float64(w)
	}
	changes := 0
	for y := 2; y < h; y++ {
		d1 := rowMeans[y-1] - rowMeans[y-2]
		d2 := rowMeans[y] - rowMeans[y-1]
		if d1*d2 < 0 && math.Abs(d1) > 2 && math.Abs(d2) > 2 {
			changes++
		}
	}
	return float64(changes) / float64(h-2)
}

// extremePixelFraction is the fraction of pixels that are nearly black or
// nearly white; UI chrome and text are dominated by such values.
func extremePixelFraction(gray []float64) float64 {
	n := 0
	for _, v := range gray {
		if v < 30 || v > 225 {
			n++
		}
	}
	return float64(n) / float64(len(gray))
}

// aspectRatioFeature encodes how elongated the image is; screenshots of
// threads tend to be tall.
func aspectRatioFeature(w, h int) float64 {
	r := float64(h) / float64(w)
	return math.Min(r/3, 1)
}
