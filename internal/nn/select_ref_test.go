package nn

import (
	"fmt"
	"math"
	"testing"

	"lcrs/internal/tensor"
)

// refReLUEval is the original branchy eval ReLU, the oracle for the
// mask-select one.
func refReLUEval(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

// refMaxPoolEval is the original branchy eval max pool.
func refMaxPoolEval(x *tensor.Tensor, k, stride, pad int) *tensor.Tensor {
	n, c, inH, inW := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g := tensor.ConvGeom{InC: c, InH: inH, InW: inW, KH: k, KW: k, Stride: stride, Pad: pad}
	outH, outW := g.OutH(), g.OutW()
	out := tensor.New(n, c, outH, outW)
	oi := 0
	for p := 0; p < n*c; p++ {
		plane := x.Data[p*inH*inW:]
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := float32(math.Inf(-1))
				found := false
				for ky := 0; ky < k; ky++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= inH {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ox*stride - pad + kx
						if ix < 0 || ix >= inW {
							continue
						}
						if v := plane[iy*inW+ix]; v > best {
							best, found = v, true
						}
					}
				}
				if !found {
					best = 0
				}
				out.Data[oi] = best
				oi++
			}
		}
	}
	return out
}

// selectInput fills a tensor with values drawn from a small pool that
// makes ties, signed zeros, infinities and NaNs common; with nanPlane the
// first plane is all NaN, so every window in it is all NaN.
func selectInput(g *tensor.RNG, nanPlane bool, shape ...int) *tensor.Tensor {
	pool := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 2.5, -2.5,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	x := tensor.New(shape...)
	for i := range x.Data {
		if g.Intn(3) == 0 {
			x.Data[i] = pool[g.Intn(len(pool))]
		} else {
			x.Data[i] = float32(g.NormFloat64())
		}
	}
	if nanPlane {
		for i := 0; i < shape[2]*shape[3]; i++ {
			x.Data[i] = float32(math.NaN())
		}
	}
	return x
}

func requireSameBits(t *testing.T, what string, want, got *tensor.Tensor) {
	t.Helper()
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// The mask-select eval ReLU must be bitwise equal to the branchy one: NaN,
// -0 and negatives all give +0.
func TestReLUEvalMatchesReferenceBitwise(t *testing.T) {
	g := tensor.NewRNG(31)
	x := selectInput(g, true, 2, 3, 5, 7)
	r := NewReLU("relu")
	requireSameBits(t, "relu heap", refReLUEval(x), r.Forward(x, false))
	arena := tensor.NewArena()
	r.SetArena(arena)
	for pass := 0; pass < 2; pass++ {
		arena.Reset()
		requireSameBits(t, "relu arena", refReLUEval(x), r.Forward(x, false))
	}
}

// The mask-select eval max pool must be bitwise equal to the branchy one:
// first-wins ties (-0 then +0 keeps -0), NaN never winning, all-NaN and
// all-padding windows giving +0 (pad > k included), for strides, pads and
// batches.
func TestMaxPoolEvalMatchesReferenceBitwise(t *testing.T) {
	g := tensor.NewRNG(32)
	negZero := float32(math.Copysign(0, -1))
	tie := tensor.FromSlice([]float32{negZero, 0, 0, negZero}, 1, 1, 2, 2)
	if got := NewMaxPool2D("p", 2, 2, 0).Forward(tie, false).Data[0]; math.Float32bits(got) != math.Float32bits(negZero) {
		t.Fatalf("-0 then +0 pooled to %v (%#x), want -0", got, math.Float32bits(got))
	}
	arena := tensor.NewArena()
	for _, geo := range []struct{ k, stride, pad int }{
		{2, 2, 0}, {3, 1, 1}, {3, 2, 1}, {2, 1, 2}, {3, 3, 2}, {1, 1, 2}, {1, 2, 3},
	} {
		for _, hw := range [][2]int{{4, 4}, {7, 5}, {1, 3}} {
			x := selectInput(g, true, 2, 3, hw[0], hw[1])
			want := refMaxPoolEval(x, geo.k, geo.stride, geo.pad)
			m := NewMaxPool2D("pool", geo.k, geo.stride, geo.pad)
			name := fmt.Sprintf("pool %+v in %v", geo, hw)
			requireSameBits(t, name+" heap", want, m.Forward(x, false))
			m.SetArena(arena)
			arena.Reset()
			requireSameBits(t, name+" arena", want, m.Forward(x, false))
		}
	}
}
