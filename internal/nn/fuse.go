package nn

import "sync/atomic"

// The fused convolution path (tensor.ConvGemmState) is bitwise identical
// to the legacy materialized-im2col path by construction. Eval-mode
// convolutions take it by default; training forwards always take the
// legacy path.
var fusedConv atomic.Bool

func init() { fusedConv.Store(true) }

// FusedConvEnabled reports whether eval-mode convolutions take the fused
// im2col+GEMM path. Training forwards always use the materialized path
// (Backward needs the cols matrix).
func FusedConvEnabled() bool { return fusedConv.Load() }

// SetFusedConv enables or disables the fused convolution path and returns
// the previous setting. It is the test-reference switch: the equivalence
// suites turn fusion off to compute the legacy path's output and compare
// the fused path against it bitwise. Safe for concurrent use, but flipping
// it while forwards are in flight only affects convolutions that start
// afterwards.
func SetFusedConv(on bool) bool { return fusedConv.Swap(on) }
