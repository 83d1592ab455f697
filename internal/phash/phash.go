// Package phash implements 64-bit DCT-based perceptual hashing of images,
// Hamming-distance computation, and nearest-neighbour indexes (BK-tree and
// multi-index hashing) used by the meme-tracking pipeline.
//
// The hash follows the classic pHash construction used by the paper's
// ImageHash dependency: the image is converted to grayscale, downsampled to
// 32x32 with bilinear interpolation, transformed with a 2-D DCT-II, and the
// top-left 8x8 block of low-frequency coefficients (excluding the DC term
// when computing the threshold) is binarised around its median. Visually
// similar images therefore map to hashes within a small Hamming distance.
package phash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"image"
	"image/color"
	"math/bits"
	"strconv"
)

// Size is the number of bits in a perceptual hash.
const Size = 64

// MaxDistance is the maximum possible Hamming distance between two hashes.
const MaxDistance = Size

// Hash is a 64-bit perceptual hash. The zero value is a valid hash (all
// zero bits) but is unlikely to be produced by a natural image.
type Hash uint64

// lowResSize is the side of the intermediate downsampled grayscale image.
const lowResSize = 32

// dctBlock is the side of the low-frequency DCT block retained for hashing.
const dctBlock = 8

var errEmptyImage = errors.New("phash: empty image")

// FromImage computes the perceptual hash of img. Only the pixels the
// bilinear downsample reads are converted — at most 64 rows by 64 columns
// of any image — into pooled fixed-size scratch, so steady-state hashing
// allocates nothing for *image.Gray, *image.RGBA, *image.NRGBA and
// *image.YCbCr; the annotation puts it under the noalloc analyzer.
//
// The hash is architecture-independent, as a wire and disk format must be:
// every product on the path is rounded on its own (luma product tables, or
// explicit float64(a*b) conversions, which the Go spec forbids fusing), and
// the DCT cosine table is committed rather than computed by math.Cos, so
// arm64 or ppc64le compute exactly amd64's bits.
//
//memes:noalloc
func FromImage(img image.Image) (Hash, error) {
	if img == nil {
		return 0, errEmptyImage
	}
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	if w <= 0 || h <= 0 {
		return 0, errEmptyImage
	}
	hs := hasherPool.Get().(*hasher)
	defer hasherPool.Put(hs)
	return hs.hashImage(img, w, h), nil
}

// Distance returns the Hamming distance between two hashes, i.e. the number
// of bit positions at which they differ. The result is in [0, 64].
func Distance(a, b Hash) int {
	return bits.OnesCount64(uint64(a ^ b))
}

// Similar reports whether the Hamming distance between a and b is at most
// threshold.
func Similar(a, b Hash, threshold int) bool {
	return Distance(a, b) <= threshold
}

// String returns the canonical 16-character lowercase hexadecimal
// representation of the hash, matching the string form used in the paper
// (e.g. "55352b0b8d8b5b53").
func (h Hash) String() string {
	var buf [16]byte
	b, _ := h.AppendText(buf[:0])
	return string(b)
}

// AppendText implements encoding.TextAppender: it appends the canonical
// 16-digit lowercase hexadecimal form String returns. It never fails.
//
//memes:noalloc
func (h Hash) AppendText(b []byte) ([]byte, error) {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[uint64(h)>>shift&0xf])
	}
	return b, nil
}

// Parse parses a hash from its hexadecimal string representation.
func Parse(s string) (Hash, error) {
	if len(s) == 0 || len(s) > 16 {
		return 0, fmt.Errorf("phash: invalid hash string %q", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("phash: invalid hash string %q: %w", s, err)
	}
	return Hash(v), nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (h Hash) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, uint64(h))
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (h *Hash) UnmarshalBinary(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("phash: invalid binary hash length %d", len(data))
	}
	*h = Hash(binary.BigEndian.Uint64(data))
	return nil
}

// MarshalText implements encoding.TextMarshaler.
func (h Hash) MarshalText() ([]byte, error) { return h.AppendText(make([]byte, 0, 16)) }

// UnmarshalText implements encoding.TextUnmarshaler.
func (h *Hash) UnmarshalText(data []byte) error {
	v, err := Parse(string(data))
	if err != nil {
		return err
	}
	*h = v
	return nil
}

// toGray converts an image to a float64 luminance matrix in row-major order
// with the same dimensions as the source bounds: sampleGray of every pixel.
func toGray(img image.Image) grayMatrix {
	b := img.Bounds()
	m := grayMatrix{w: b.Dx(), h: b.Dy(), pix: make([]float64, b.Dx()*b.Dy())}
	sampleGray(img, seq(m.h), seq(m.w), m.pix)
	return m
}

// seq returns 0, 1, ..., n-1.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// sampleGray writes the luminance of the pixels at rows x cols of img
// (offsets from img.Bounds().Min) into dst in row-major order,
// len(rows)*len(cols) values. Dedicated loops cover the concrete image
// types the synthetic and real corpora produce — *image.Gray, *image.RGBA,
// *image.NRGBA, *image.YCbCr — with the type switch outside the pixel
// loop; every fast path computes exactly the value the generic
// color.RGBAModel path would (pinned by equivalence tests), so the hash
// does not depend on which path ran.
//
//memes:noalloc
func sampleGray(img image.Image, rows, cols []int, dst []float64) {
	b := img.Bounds()
	k := 0
	switch src := img.(type) {
	case *image.Gray:
		for _, y := range rows {
			row := src.Pix[src.PixOffset(b.Min.X, b.Min.Y+y):]
			for _, x := range cols {
				dst[k] = float64(row[x])
				k++
			}
		}
	case *image.RGBA:
		for _, y := range rows {
			row := src.Pix[src.PixOffset(b.Min.X, b.Min.Y+y):]
			for _, x := range cols {
				dst[k] = luminance(row[4*x], row[4*x+1], row[4*x+2])
				k++
			}
		}
	case *image.NRGBA:
		for _, y := range rows {
			row := src.Pix[src.PixOffset(b.Min.X, b.Min.Y+y):]
			for _, x := range cols {
				p := row[4*x : 4*x+4]
				a := uint32(p[3])
				dst[k] = luminance(npremul(uint32(p[0]), a), npremul(uint32(p[1]), a), npremul(uint32(p[2]), a))
				k++
			}
		}
	case *image.YCbCr:
		for _, y := range rows {
			for _, x := range cols {
				c := src.YCbCrAt(b.Min.X+x, b.Min.Y+y)
				dst[k] = luminance(ycbcrToRGB8(c.Y, c.Cb, c.Cr))
				k++
			}
		}
	default:
		for _, y := range rows {
			for _, x := range cols {
				c := color.RGBAModel.Convert(img.At(b.Min.X+x, b.Min.Y+y)).(color.RGBA)
				dst[k] = luminance(c.R, c.G, c.B)
				k++
			}
		}
	}
}

// npremul alpha-premultiplies one 8-bit non-premultiplied channel and
// truncates back to 8 bits, replicating color.NRGBA.RGBA followed by
// color.RGBAModel's >>8 exactly.
func npremul(v, a uint32) uint8 {
	v |= v << 8
	v *= a
	v /= 0xff
	return uint8(v >> 8)
}

// ycbcrToRGB8 converts a Y'CbCr triple to 8-bit RGB with the same
// fixed-point arithmetic and clamping as color.YCbCr.RGBA (truncated to
// 8 bits the way color.RGBAModel truncates it), so the fast path is
// bit-compatible with the generic conversion.
func ycbcrToRGB8(yy, cb, cr uint8) (uint8, uint8, uint8) {
	yy1 := int32(yy) * 0x10101
	cb1 := int32(cb) - 128
	cr1 := int32(cr) - 128

	r := yy1 + 91881*cr1
	if uint32(r)&0xff000000 == 0 {
		r >>= 8
	} else {
		r = ^(r >> 31) & 0xffff
	}
	g := yy1 - 22554*cb1 - 46802*cr1
	if uint32(g)&0xff000000 == 0 {
		g >>= 8
	} else {
		g = ^(g >> 31) & 0xffff
	}
	b := yy1 + 116130*cb1
	if uint32(b)&0xff000000 == 0 {
		b >>= 8
	} else {
		b = ^(b >> 31) & 0xffff
	}
	return uint8(uint32(r) >> 8), uint8(uint32(g) >> 8), uint8(uint32(b) >> 8)
}

// luminance computes the ITU-R BT.601 luma 0.299*r + 0.587*g + 0.114*b of
// 8-bit RGB components, summed left to right. Each product is read from a
// table that holds it already rounded, so nothing can be fused.
func luminance(r, g, b uint8) float64 {
	return lumR[r] + lumG[g] + lumB[b]
}

var lumR, lumG, lumB [256]float64

func init() {
	for v := range lumR {
		lumR[v], lumG[v], lumB[v] = 0.299*float64(v), 0.587*float64(v), 0.114*float64(v)
	}
}

type grayMatrix struct {
	w, h int
	pix  []float64
}

// resizeBilinear resizes a grayscale matrix to dw x dh (each at most
// lowResSize) using bilinear interpolation and returns the result in
// row-major order.
func resizeBilinear(m grayMatrix, dw, dh int) []float64 {
	var xs, ys axisTaps
	xs.init(m.w, dw, false)
	ys.init(m.h, dh, false)
	out := make([]float64, dw*dh)
	resizeTaps(out, m.pix, m.w, &xs, &ys)
	return out
}

// axisTaps is one axis of a bilinear resize from s source samples to
// d <= lowResSize outputs: output i blends taps lo[i] and hi[i] (lo[i] or
// the next sample) with weight frac[i] on hi[i]. The taps are source
// coordinates, or, compacted, indexes into src: the n <= 2d distinct source
// coordinates tapped, ascending.
type axisTaps struct {
	s, d, n int
	lo, hi  [lowResSize]int
	frac    [lowResSize]float64
	src     [2 * lowResSize]int
}

// init computes the taps of an s-to-d axis.
//
//memes:noalloc
func (a *axisTaps) init(s, d int, compact bool) {
	a.s, a.d, a.n = s, d, 0
	ratio := float64(s-1) / float64(max(d-1, 1))
	for i := 0; i < d; i++ {
		p := float64(float64(i) * ratio)
		lo := int(p)
		hi := min(lo+1, s-1)
		a.frac[i] = p - float64(lo)
		if !compact {
			a.lo[i], a.hi[i] = lo, hi
			continue
		}
		// lo and hi never decrease with i, so src stays ascending and
		// ends at hi, with lo (if different) just before it.
		for _, v := range [2]int{lo, hi} {
			if a.n == 0 || a.src[a.n-1] < v {
				a.src[a.n], a.n = v, a.n+1
			}
		}
		a.hi[i] = a.n - 1
		a.lo[i] = a.n - 1 - (hi - lo)
	}
}

// resizeTaps bilinearly resizes pix, row-major with the given row stride,
// to xs.d x ys.d through the axes' taps. Each product is rounded explicitly
// (float64(a*b)) so that no architecture fuses it into the add.
//
//memes:noalloc
func resizeTaps(out, pix []float64, stride int, xs, ys *axisTaps) {
	dw, dh := xs.d, ys.d
	if xs.s == dw && ys.s == dh {
		copy(out, pix)
		return
	}
	for y := 0; y < dh; y++ {
		r0 := pix[ys.lo[y]*stride:]
		r1 := pix[ys.hi[y]*stride:]
		fy := ys.frac[y]
		for x := 0; x < dw; x++ {
			x0, x1, fx := xs.lo[x], xs.hi[x], xs.frac[x]
			top := r0[x0] + float64((r0[x1]-r0[x0])*fx)
			bot := r1[x0] + float64((r1[x1]-r1[x0])*fx)
			out[y*dw+x] = top + float64((bot-top)*fy)
		}
	}
}

// medianExcludingFirst returns the median of vals[1:]; the first element is
// the DC coefficient that is conventionally excluded from the threshold.
// The hash path always passes the 64-coefficient block, so the 63 remaining
// values fit the fixed stack buffer and a partial selection sort up to the
// middle replaces a full sort — no allocation, ~half the comparisons. The
// selected order statistics are the same values a full sort would yield, so
// hashes are unchanged. Oversized inputs (never the hash path) spill to the
// allocating medianSpill so this function stays annotation-clean.
//
//memes:noalloc
func medianExcludingFirst(vals []float64) float64 {
	var buf [dctBlock*dctBlock - 1]float64
	n := len(vals) - 1
	if n > len(buf) {
		return medianSpill(vals)
	}
	tmp := buf[:n]
	copy(tmp, vals[1:])
	return medianSelect(tmp)
}

// medianSpill is the cold path for coefficient blocks larger than the fixed
// stack buffer; it allocates a scratch copy.
func medianSpill(vals []float64) float64 {
	tmp := make([]float64, len(vals)-1)
	copy(tmp, vals[1:])
	return medianSelect(tmp)
}

// medianSelect computes the median of tmp in place with a partial selection
// sort up to the middle.
//
//memes:noalloc
func medianSelect(tmp []float64) float64 {
	n := len(tmp)
	mid := n / 2
	for i := 0; i <= mid; i++ {
		min := i
		for j := i + 1; j < n; j++ {
			if tmp[j] < tmp[min] {
				min = j
			}
		}
		tmp[i], tmp[min] = tmp[min], tmp[i]
	}
	if n%2 == 1 {
		return tmp[mid]
	}
	return (tmp[mid-1] + tmp[mid]) / 2
}
