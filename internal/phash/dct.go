package phash

import (
	_ "embed"
	"encoding/binary"
	"math"
	"sync"
)

// dctTopLeft computes the top-left dctBlock x dctBlock block of the 2-D
// type-II DCT of a lowResSize x lowResSize matrix, writing the row-pass
// scratch into tmp (lowResSize rows x dctBlock coefficients) and the block
// into out. The hash only ever reads this block, so the row pass computes
// just dctBlock coefficients per row and the column pass just dctBlock x
// dctBlock outputs — ~(lowResSize/dctBlock)x fewer multiply-adds than the
// full transform — while every retained coefficient is produced by exactly
// the same operations in the same order as dct2D, keeping hashes
// bit-identical.
//
//memes:noalloc
func dctTopLeft(pix []float64, tmp, out []float64) {
	n := lowResSize
	table := dctTable()
	scale := dctScaleTable()

	// Rows: coefficients k < dctBlock of every row.
	for y := 0; y < n; y++ {
		row := pix[y*n : (y+1)*n]
		for k := 0; k < dctBlock; k++ {
			sum := 0.0
			tr := table[k*n : (k+1)*n]
			for i, v := range row {
				sum += float64(v * tr[i])
			}
			tmp[y*dctBlock+k] = sum * scale[k]
		}
	}
	// Columns: coefficients k < dctBlock of the first dctBlock columns.
	var col [lowResSize]float64
	for x := 0; x < dctBlock; x++ {
		for y := 0; y < n; y++ {
			col[y] = tmp[y*dctBlock+x]
		}
		for k := 0; k < dctBlock; k++ {
			sum := 0.0
			tr := table[k*n : (k+1)*n]
			for i, v := range col {
				sum += float64(v * tr[i])
			}
			out[k*dctBlock+x] = sum * scale[k]
		}
	}
}

// dct2D computes the full 2-D type-II discrete cosine transform of a square
// lowResSize x lowResSize matrix given in row-major order. The transform is
// separable: a 1-D DCT is applied to every row and then to every column.
// Coefficient tables are precomputed once because the pipeline hashes
// millions of images with the same dimensions.
//
// The hashing hot path uses the pruned dctTopLeft instead; dct2D is the
// reference transform its equivalence tests pin against.
func dct2D(pix []float64) []float64 {
	n := lowResSize
	table := dctTable()

	tmp := make([]float64, n*n)
	out := make([]float64, n*n)

	// Rows.
	for y := 0; y < n; y++ {
		row := pix[y*n : (y+1)*n]
		dst := tmp[y*n : (y+1)*n]
		dct1D(row, dst, table)
	}
	// Columns.
	col := make([]float64, n)
	res := make([]float64, n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			col[y] = tmp[y*n+x]
		}
		dct1D(col, res, table)
		for y := 0; y < n; y++ {
			out[y*n+x] = res[y]
		}
	}
	return out
}

// dct1D computes the 1-D DCT-II of src into dst using the precomputed cosine
// table. len(src) == len(dst) == lowResSize.
func dct1D(src, dst []float64, table []float64) {
	n := len(src)
	for k := 0; k < n; k++ {
		sum := 0.0
		row := table[k*n:]
		for i := 0; i < n; i++ {
			sum += float64(src[i] * row[i])
		}
		dst[k] = sum * dctScale(k, n)
	}
}

// dctScale returns the orthonormal scaling factor for coefficient k of an
// n-point DCT-II.
func dctScale(k, n int) float64 {
	if k == 0 {
		return math.Sqrt(1.0 / float64(n))
	}
	return math.Sqrt(2.0 / float64(n))
}

var (
	dctTableOnce sync.Once
	dctTableVals []float64

	dctScaleOnce sync.Once
	dctScaleVals []float64
)

// dctScaleTable returns the per-coefficient orthonormal scale factors for a
// lowResSize-point DCT-II, precomputed so the hot path never calls math.Sqrt.
// Entry k equals dctScale(k, lowResSize) exactly.
func dctScaleTable() []float64 {
	dctScaleOnce.Do(func() {
		dctScaleVals = make([]float64, lowResSize)
		for k := range dctScaleVals {
			dctScaleVals[k] = dctScale(k, lowResSize)
		}
	})
	return dctScaleVals
}

// dctTableBits is the cosine basis table as little-endian float64 bits,
// committed because math.Cos fuses multiply-adds on some architectures;
// TestDCTTableMatchesCos holds it to math.Cos.
//
//go:embed dcttable.bin
var dctTableBits []byte

// dctTable returns the lowResSize x lowResSize cosine basis table where entry
// (k, i) = cos(pi/n * (i + 0.5) * k).
func dctTable() []float64 {
	dctTableOnce.Do(func() {
		dctTableVals = make([]float64, lowResSize*lowResSize)
		for i := range dctTableVals {
			dctTableVals[i] = math.Float64frombits(binary.LittleEndian.Uint64(dctTableBits[8*i:]))
		}
	})
	return dctTableVals
}
