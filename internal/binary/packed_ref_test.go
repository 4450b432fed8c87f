package binary

import (
	"fmt"
	"math"
	"testing"

	"lcrs/internal/tensor"
)

// refPackedConv is the original packed XNOR convolution, kept as the
// oracle for the channel-last kernel: weights packed in (InC, KH, KW)
// order, a float im2col per sample, every receptive field re-packed with
// PackSigns, and one XnorDot per (channel, position).
func refPackedConv(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	k := c.InC * c.KH * c.KW
	w := NewPackedMatrix(c.OutC, k)
	w2d := c.Weight.Value.Reshape(c.OutC, k)
	for o := 0; o < c.OutC; o++ {
		w.PackRow(o, w2d.Row(o))
	}
	alpha := FilterAlphas(c.Weight.Value)
	bias := c.Bias.Value.Data

	n := x.Dim(0)
	g := tensor.ConvGeom{InC: c.InC, InH: x.Dim(2), InW: x.Dim(3), KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad}
	outH, outW := g.OutH(), g.OutW()
	pp := outH * outW
	out := tensor.New(n, c.OutC, outH, outW)
	raw := make([]float32, pp*k)
	cols := NewPackedMatrix(pp, k)
	for i := 0; i < n; i++ {
		img := x.Batch(i).Data
		g.Im2Col(raw, img)
		ks := refInputScales(g, img)
		for pos := 0; pos < pp; pos++ {
			cols.PackRow(pos, raw[pos*k:(pos+1)*k])
		}
		ob := out.Batch(i)
		for o := 0; o < c.OutC; o++ {
			plane := ob.Data[o*pp : (o+1)*pp]
			for pos := 0; pos < pp; pos++ {
				dot := XnorDot(w.Row(o), cols.Row(pos), k)
				plane[pos] = alpha[o]*ks[pos]*float32(dot) + bias[o]
			}
		}
	}
	return out
}

// refInputScales is the original branchy K-matrix computation.
func refInputScales(g tensor.ConvGeom, img []float32) []float32 {
	inHW := g.InH * g.InW
	a := make([]float32, inHW)
	invC := 1 / float32(g.InC)
	for c := 0; c < g.InC; c++ {
		for i, v := range img[c*inHW : (c+1)*inHW] {
			if v < 0 {
				a[i] -= v * invC
			} else {
				a[i] += v * invC
			}
		}
	}
	outH, outW := g.OutH(), g.OutW()
	k := make([]float32, outH*outW)
	invKK := 1 / float32(g.KH*g.KW)
	idx := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			var s float32
			for ky := 0; ky < g.KH; ky++ {
				iy := oy*g.Stride - g.Pad + ky
				if iy < 0 || iy >= g.InH {
					continue
				}
				for kx := 0; kx < g.KW; kx++ {
					ix := ox*g.Stride - g.Pad + kx
					if ix < 0 || ix >= g.InW {
						continue
					}
					s += a[iy*g.InW+ix]
				}
			}
			k[idx] = s * invKK
			idx++
		}
	}
	return k
}

// refPackedLinear is the original packed dense forward: one XnorDot per
// output with a branchy row scale.
func refPackedLinear(l *Linear, x *tensor.Tensor) *tensor.Tensor {
	w := NewPackedMatrix(l.Out, l.In)
	for o := 0; o < l.Out; o++ {
		w.PackRow(o, l.Weight.Value.Row(o))
	}
	alpha := FilterAlphas(l.Weight.Value)
	n := x.Dim(0)
	out := tensor.New(n, l.Out)
	xrow := make([]uint64, wordsFor(l.In))
	for i := 0; i < n; i++ {
		row := x.Row(i)
		var s float64
		for _, v := range row {
			if v < 0 {
				s -= float64(v)
			} else {
				s += float64(v)
			}
		}
		beta := float32(s / float64(len(row)))
		PackSigns(xrow, row)
		for o := 0; o < l.Out; o++ {
			dot := XnorDot(w.Row(o), xrow, l.In)
			out.Row(i)[o] = alpha[o]*beta*float32(dot) + l.Bias.Value.Data[o]
		}
	}
	return out
}

// specialInput draws a uniform tensor with about one element in eight set
// to +0 or -0 and, when nonFinite is set, three elements set to +Inf, -Inf
// and NaN (few, so most outputs stay finite and still test the bits). The
// NaN is the positive quiet NaN: the kernels take |v| by clearing the sign
// bit, so a negative NaN input may come out as a NaN of the other sign.
func specialInput(g *tensor.RNG, nonFinite bool, shape ...int) *tensor.Tensor {
	x := g.Uniform(-2, 2, shape...)
	negZero := float32(math.Copysign(0, -1))
	for i := range x.Data {
		switch g.Intn(16) {
		case 0:
			x.Data[i] = 0
		case 1:
			x.Data[i] = negZero
		}
	}
	if nonFinite {
		for _, v := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
			x.Data[g.Intn(len(x.Data))] = v
		}
	}
	return x
}

func requireSameBits(t *testing.T, what string, want, got *tensor.Tensor) {
	t.Helper()
	if fmt.Sprint(want.Shape) != fmt.Sprint(got.Shape) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// The channel-last packed conv — heap and arena paths, serial and chunked
// — must be bitwise equal to the original kernel across channel counts on
// both sides of the 64-bit word, partial channel blocks, strides, pads,
// batches and inputs holding ±0, ±Inf and NaN.
func TestPackedConvMatchesReferenceBitwise(t *testing.T) {
	g := tensor.NewRNG(21)
	arena := tensor.NewArena()
	for _, inC := range []int{1, 3, 63, 64, 65, 192} {
		for _, geo := range []struct{ k, stride, pad, outC, n, hw int }{
			{3, 1, 1, 7, 2, 6},
			{3, 2, 0, 4, 1, 7},
			{3, 1, 2, 9, 1, 5},
			{2, 2, 1, 5, 3, 5},
		} {
			c := NewConv2D("bc", g, inC, geo.outC, geo.k, geo.k, geo.stride, geo.pad)
			p := PackConv2D(c)
			for _, nonFinite := range []bool{false, true} {
				x := specialInput(g, nonFinite, geo.n, inC, geo.hw, geo.hw)
				want := refPackedConv(c, x)
				for _, workers := range []int{1, 8} {
					prev := tensor.SetMaxWorkers(workers)
					name := fmt.Sprintf("inC=%d %+v nonFinite=%v workers=%d", inC, geo, nonFinite, workers)
					requireSameBits(t, name+" heap", want, p.Forward(x))
					var r convRun
					for pass := 0; pass < 2; pass++ { // cold (overflow) then warm slabs
						arena.Reset()
						requireSameBits(t, name+" arena", want, r.forward(p, x, arena))
					}
					tensor.SetMaxWorkers(prev)
				}
			}
		}
	}
}

// The blocked packed dense layer must be bitwise equal to the original
// one-dot-per-output loop, for widths on both sides of a word and output
// counts that leave a partial block.
func TestPackedLinearMatchesReferenceBitwise(t *testing.T) {
	g := tensor.NewRNG(22)
	arena := tensor.NewArena()
	for _, in := range []int{1, 3, 63, 64, 65, 192, 4096} {
		for _, outN := range []int{1, 5, 8, 11} {
			l := NewLinear("bl", g, in, outN)
			p := PackLinear(l)
			for _, nonFinite := range []bool{false, true} {
				x := specialInput(g, nonFinite, 3, in)
				want := refPackedLinear(l, x)
				for _, workers := range []int{1, 8} {
					prev := tensor.SetMaxWorkers(workers)
					name := fmt.Sprintf("in=%d out=%d nonFinite=%v workers=%d", in, outN, nonFinite, workers)
					requireSameBits(t, name+" heap", want, p.Forward(x))
					arena.Reset()
					requireSameBits(t, name+" arena", want, p.forward(x, arena))
					tensor.SetMaxWorkers(prev)
				}
			}
		}
	}
}

// The sign-bit-clearing scales must equal the branchy originals bitwise.
func TestAbsScalesMatchBranchyBitwise(t *testing.T) {
	g := tensor.NewRNG(23)
	geo := tensor.ConvGeom{InC: 5, InH: 7, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	img := specialInput(g, true, 5*7*6)
	want := refInputScales(geo, img.Data)
	got := InputScales(geo, img.Data)
	requireSameBits(t, "InputScales", tensor.FromSlice(want, len(want)), tensor.FromSlice(got, len(got)))

	row := g.Uniform(-3, 3, 100).Data
	row[7] = float32(math.Copysign(0, -1))
	var s float64
	for _, v := range row {
		if v < 0 {
			s -= float64(v)
		} else {
			s += float64(v)
		}
	}
	if want, got := float32(s/float64(len(row))), RowScale(row); math.Float32bits(want) != math.Float32bits(got) {
		t.Fatalf("RowScale = %v, want %v", got, want)
	}
}

// The dispatched popcount kernel (assembly on amd64 with POPCNT) must
// count exactly what the portable loop counts, for single words, word
// counts the conv and dense layers use, and one row or many.
func TestPopcounts4AsmMatchesGo(t *testing.T) {
	g := tensor.NewRNG(24)
	word := func() uint64 { return uint64(g.Int63())<<1 ^ uint64(g.Intn(2)) }
	for _, wpr := range []int{1, 2, 9, 27, 64} {
		for _, nrows := range []int{1, 3, 64} {
			rows := make([]uint64, wpr*nrows)
			for i := range rows {
				rows[i] = word()
			}
			w := make([][]uint64, 4)
			for r := range w {
				w[r] = make([]uint64, wpr)
				for i := range w[r] {
					w[r][i] = word()
				}
			}
			w[3][0] = rows[0] // an all-agreeing word
			want := make([]int32, 4*nrows)
			got := make([]int32, 4*nrows)
			popcounts4go(rows, wpr, w[0], w[1], w[2], w[3], want)
			popcounts4(rows, wpr, w[0], w[1], w[2], w[3], got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("wpr=%d nrows=%d: count %d = %d, want %d", wpr, nrows, i, got[i], want[i])
				}
			}
		}
	}
}
