package phash

import "image"

// This file provides the two classic alternatives to the DCT pHash —
// average hashing (aHash) and difference hashing (dHash) — so the hashing
// stage of the pipeline can be compared across algorithms, in the spirit of
// the perceptual-hash robustness benchmarking the paper cites (Zauner et
// al., "Rihamark"). The pipeline itself uses FromImage (DCT pHash), which is
// what the paper's ImageHash dependency computes; these are provided for
// ablation and for downstream users with different robustness/latency
// trade-offs.

// Algorithm selects a perceptual hashing algorithm.
type Algorithm int

const (
	// DCT is the default pHash algorithm used throughout the pipeline.
	DCT Algorithm = iota
	// Average is aHash: each bit compares a pixel of the 8x8 downsampled
	// image against the mean luminance. Fast, less robust to contrast
	// changes.
	Average
	// Difference is dHash: each bit compares horizontally adjacent pixels of
	// a 9x8 downsampled image. Robust to global brightness shifts.
	Difference
)

// String returns the algorithm's conventional name.
func (a Algorithm) String() string {
	switch a {
	case DCT:
		return "phash"
	case Average:
		return "ahash"
	case Difference:
		return "dhash"
	default:
		return "unknown"
	}
}

// FromImageWith computes a 64-bit perceptual hash with the selected
// algorithm.
func FromImageWith(img image.Image, alg Algorithm) (Hash, error) {
	switch alg {
	case Average:
		return averageHash(img)
	case Difference:
		return differenceHash(img)
	default:
		return FromImage(img)
	}
}

// averageHash implements aHash: downsample to 8x8, threshold at the mean.
func averageHash(img image.Image) (Hash, error) {
	if img == nil {
		return 0, errEmptyImage
	}
	b := img.Bounds()
	if b.Dx() <= 0 || b.Dy() <= 0 {
		return 0, errEmptyImage
	}
	gray := toGray(img)
	small := resizeBilinear(gray, 8, 8)
	mean := 0.0
	for _, v := range small {
		mean += v
	}
	mean /= float64(len(small))
	var h Hash
	for i, v := range small {
		if v > mean {
			h |= 1 << uint(i)
		}
	}
	return h, nil
}

// differenceHash implements dHash: downsample to 9x8 and compare each pixel
// with its right neighbour.
func differenceHash(img image.Image) (Hash, error) {
	if img == nil {
		return 0, errEmptyImage
	}
	b := img.Bounds()
	if b.Dx() <= 0 || b.Dy() <= 0 {
		return 0, errEmptyImage
	}
	gray := toGray(img)
	small := resizeBilinear(gray, 9, 8)
	var h Hash
	bit := 0
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if small[y*9+x] < small[y*9+x+1] {
				h |= 1 << uint(bit)
			}
			bit++
		}
	}
	return h, nil
}
