package phash

import (
	"image"
	"sync"
)

// hasher holds every piece of per-image scratch the DCT hash needs: the two
// axes' tap tables, the luminance of the tapped rows x tapped columns, the
// downsampled 32x32 image, and the row-pass and block buffers of the pruned
// DCT. All of it is fixed-size, whatever the images hashed. FromImage
// borrows a hasher from a sync.Pool, so the steady-state hash path
// performs zero heap allocations regardless of how many goroutines hash
// concurrently.
type hasher struct {
	xs, ys  axisTaps
	sampled [2 * lowResSize * 2 * lowResSize]float64
	// small is the bilinear-downsampled lowResSize x lowResSize image.
	small [lowResSize * lowResSize]float64
	// tmp holds the row-pass output of the pruned DCT: lowResSize rows of
	// dctBlock coefficients each.
	tmp [lowResSize * dctBlock]float64
	// block is the top-left dctBlock x dctBlock coefficient block.
	block [dctBlock * dctBlock]float64
}

var hasherPool = sync.Pool{New: func() any { return new(hasher) }}

// hashImage hashes a w x h image from the pixels its downsample taps.
//
//memes:noalloc
func (hs *hasher) hashImage(img image.Image, w, h int) Hash {
	hs.xs.init(w, lowResSize, true)
	hs.ys.init(h, lowResSize, true)
	nx, ny := hs.xs.n, hs.ys.n
	pix := hs.sampled[:nx*ny]
	sampleGray(img, hs.ys.src[:ny], hs.xs.src[:nx], pix)
	return hs.hash(pix, nx)
}

// hash computes the DCT hash of luminance matrix pix, of the given row
// stride, through the taps in hs.xs and hs.ys: downsample, pruned DCT,
// median threshold. The bit layout and every floating-point operation
// match the pre-pool implementation, so hashes are bit-identical to it.
//
//memes:noalloc
func (hs *hasher) hash(pix []float64, stride int) Hash {
	resizeTaps(hs.small[:], pix, stride, &hs.xs, &hs.ys)
	dctTopLeft(hs.small[:], hs.tmp[:], hs.block[:])
	// Median excludes the DC coefficient, which otherwise dominates.
	med := medianExcludingFirst(hs.block[:])
	var out Hash
	for i, v := range hs.block[:] {
		if v > med {
			out |= 1 << uint(i)
		}
	}
	return out
}
