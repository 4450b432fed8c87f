package nn

import (
	"fmt"
	"math"

	"lcrs/internal/tensor"
)

// MaxPool2D is a max pooling layer over NCHW input.
type MaxPool2D struct {
	name   string
	K      int
	Stride int
	Pad    int

	lastShape []int
	argmax    []int32 // flat input index chosen for each output element
	arena     *tensor.Arena
}

// NewMaxPool2D constructs a max pooling layer with a square window.
func NewMaxPool2D(name string, k, stride, pad int) *MaxPool2D {
	return &MaxPool2D{name: name, K: k, Stride: stride, Pad: pad}
}

// SetArena implements ArenaScratch.
func (m *MaxPool2D) SetArena(a *tensor.Arena) { m.arena = a }

// CloneForInference implements ForwardContext.
func (m *MaxPool2D) CloneForInference() Layer {
	return &MaxPool2D{name: m.name, K: m.K, Stride: m.Stride, Pad: m.Pad}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.name }

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

func (m *MaxPool2D) geom(in []int) tensor.ConvGeom {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: %s expects CHW sample shape, got %v", m.name, in))
	}
	return tensor.ConvGeom{InC: in[0], InH: in[1], InW: in[2], KH: m.K, KW: m.K, Stride: m.Stride, Pad: m.Pad}
}

// OutShape implements Layer.
func (m *MaxPool2D) OutShape(in []int) []int {
	g := m.geom(in)
	return []int{in[0], g.OutH(), g.OutW()}
}

// FLOPs implements Layer: one comparison per window element.
func (m *MaxPool2D) FLOPs(in []int) int64 {
	g := m.geom(in)
	return int64(in[0]) * int64(g.OutH()) * int64(g.OutW()) * int64(m.K*m.K)
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(m.name, x, 4)
	n, c := x.Dim(0), x.Dim(1)
	g := m.geom(x.Shape[1:])
	outH, outW := g.OutH(), g.OutW()
	inH, inW := x.Dim(2), x.Dim(3)
	var out *tensor.Tensor
	if train {
		out = tensor.New(n, c, outH, outW)
	} else {
		// Every output element is written below (all-padding windows
		// store 0 explicitly), so uninitialized arena storage is safe.
		out = evalTensor(m.arena, n, c, outH, outW)
		if m.K == 2 && m.Stride == 2 && m.Pad == 0 && 2*outH <= inH && 2*outW <= inW {
			pool2x2Eval(out.Data, x.Data, n*c, inH, inW, outH, outW)
			return out
		}
	}
	if train {
		m.lastShape = append([]int(nil), x.Shape...)
		if cap(m.argmax) < out.Len() {
			m.argmax = make([]int32, out.Len())
		}
		m.argmax = m.argmax[:out.Len()]
	}
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			plane := x.Data[(b*c+ch)*inH*inW:]
			for oy := 0; oy < outH; oy++ {
				iy0 := oy*m.Stride - m.Pad
				for ox := 0; ox < outW; ox++ {
					ix0 := ox*m.Stride - m.Pad
					best := float32(math.Inf(-1))
					bestIdx := int32(-1)
					for ky := 0; ky < m.K; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= inH {
							continue
						}
						for kx := 0; kx < m.K; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= inW {
								continue
							}
							idx := iy*inW + ix
							if v := plane[idx]; v > best {
								best = v
								bestIdx = int32((b*c+ch)*inH*inW + idx)
							}
						}
					}
					if bestIdx < 0 {
						best = 0 // window entirely in padding
					}
					out.Data[oi] = best
					if train {
						m.argmax[oi] = bestIdx
					}
					oi++
				}
			}
		}
	}
	return out
}

// pool2x2Eval is the inference loop of the 2x2, stride-2, unpadded pool
// every architecture here uses, over planes of inH x inW. It makes the
// general loop's compare, v > best, in the same window order, so NaN never
// wins, ties keep the first element (-0 before +0 stays -0) and a window
// where nothing compared greater (all NaN or -Inf) gives +0 as the general
// loop's bestIdx < 0 case does. But it selects through masks instead of
// branching on the compare: activation signs are unpredictable, and the
// mispredicted branches cost more than the selection.
func pool2x2Eval(dst, src []float32, planes, inH, inW, outH, outW int) {
	for p := 0; p < planes*outH; p++ {
		top := (p/outH*inH + p%outH*2) * inW
		r0, r1 := src[top:][:inW], src[top+inW:][:inW]
		d := dst[p*outW:][:outW]
		for ox := range d {
			b, f := selectGreater(r0[2*ox], negInfBits, 0)
			b, f = selectGreater(r0[2*ox+1], b, f)
			b, f = selectGreater(r1[2*ox], b, f)
			b, f = selectGreater(r1[2*ox+1], b, f)
			d[ox] = math.Float32frombits(b & f)
		}
	}
}

// negInfBits is the bit pattern of -Inf, the running max before any tap.
const negInfBits uint32 = 0xff800000

// selectGreater is one max-pool tap: v replaces best when v > best, and
// found records that some tap did.
func selectGreater(v float32, best, found uint32) (uint32, uint32) {
	gt := mask32(v > math.Float32frombits(best))
	return math.Float32bits(v)&gt | best&^gt, found | gt
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(m.lastShape...)
	for i, v := range dout.Data {
		if idx := m.argmax[i]; idx >= 0 {
			dx.Data[idx] += v
		}
	}
	return dx
}

// AvgPool2D is an average pooling layer over NCHW input. Padding is not
// supported; the networks in this repository only use it for final
// downsampling where no padding is needed.
type AvgPool2D struct {
	name   string
	K      int
	Stride int

	lastShape []int
	arena     *tensor.Arena
}

// NewAvgPool2D constructs an average pooling layer with a square window.
func NewAvgPool2D(name string, k, stride int) *AvgPool2D {
	return &AvgPool2D{name: name, K: k, Stride: stride}
}

// SetArena implements ArenaScratch.
func (a *AvgPool2D) SetArena(ar *tensor.Arena) { a.arena = ar }

// CloneForInference implements ForwardContext.
func (a *AvgPool2D) CloneForInference() Layer {
	return &AvgPool2D{name: a.name, K: a.K, Stride: a.Stride}
}

// Name implements Layer.
func (a *AvgPool2D) Name() string { return a.name }

// Params implements Layer.
func (a *AvgPool2D) Params() []*Param { return nil }

func (a *AvgPool2D) geom(in []int) tensor.ConvGeom {
	return tensor.ConvGeom{InC: in[0], InH: in[1], InW: in[2], KH: a.K, KW: a.K, Stride: a.Stride}
}

// OutShape implements Layer.
func (a *AvgPool2D) OutShape(in []int) []int {
	g := a.geom(in)
	return []int{in[0], g.OutH(), g.OutW()}
}

// FLOPs implements Layer.
func (a *AvgPool2D) FLOPs(in []int) int64 {
	g := a.geom(in)
	return int64(in[0]) * int64(g.OutH()) * int64(g.OutW()) * int64(a.K*a.K)
}

// Forward implements Layer.
func (a *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(a.name, x, 4)
	n, c := x.Dim(0), x.Dim(1)
	g := a.geom(x.Shape[1:])
	outH, outW := g.OutH(), g.OutW()
	inH, inW := x.Dim(2), x.Dim(3)
	var out *tensor.Tensor
	if train {
		out = tensor.New(n, c, outH, outW)
	} else {
		out = evalTensor(a.arena, n, c, outH, outW) // every element written below
	}
	inv := 1 / float32(a.K*a.K)
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			plane := x.Data[(b*c+ch)*inH*inW:]
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					var s float32
					for ky := 0; ky < a.K; ky++ {
						iy := oy*a.Stride + ky
						for kx := 0; kx < a.K; kx++ {
							s += plane[iy*inW+ox*a.Stride+kx]
						}
					}
					out.Data[oi] = s * inv
					oi++
				}
			}
		}
	}
	if train {
		a.lastShape = append([]int(nil), x.Shape...)
	}
	return out
}

// Backward implements Layer.
func (a *AvgPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(a.lastShape...)
	n, c := a.lastShape[0], a.lastShape[1]
	inH, inW := a.lastShape[2], a.lastShape[3]
	g := a.geom(a.lastShape[1:])
	outH, outW := g.OutH(), g.OutW()
	inv := 1 / float32(a.K*a.K)
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			plane := dx.Data[(b*c+ch)*inH*inW:]
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					gvp := dout.Data[oi] * inv
					for ky := 0; ky < a.K; ky++ {
						iy := oy*a.Stride + ky
						for kx := 0; kx < a.K; kx++ {
							plane[iy*inW+ox*a.Stride+kx] += gvp
						}
					}
					oi++
				}
			}
		}
	}
	return dx
}
