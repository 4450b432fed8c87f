//go:build amd64

package binary

// POPCNT dispatch for the XNOR kernels. With the default GOAMD64=v1,
// bits.OnesCount64 compiles to a feature test and a call-out fallback
// around each POPCNT, and the fallback's call makes the register
// allocator spill the four accumulators of the blocked loop on every
// word. The assembly loop (xnor_amd64.s) runs plain POPCNT when CPUID
// reports it; integer popcounts are exact, so both paths give the same
// counts (TestPopcounts4AsmMatchesGo).

// cpuid1ecx is implemented in xnor_amd64.s.
func cpuid1ecx() uint32

//go:noescape
func popcounts4asm(rows *uint64, wpr, nrows int, w0, w1, w2, w3 *uint64, cnt *int32)

// havePOPCNT reports CPUID.1:ECX.POPCNT.
var havePOPCNT = cpuid1ecx()&(1<<23) != 0

// popcounts4 writes, for each of the len(rows)/wpr rows of wpr words in
// rows, popcount(row XOR w_r) for the four weight rows w0..w3 (wpr words
// each) to cnt[4*i : 4*i+4].
func popcounts4(rows []uint64, wpr int, w0, w1, w2, w3 []uint64, cnt []int32) {
	n := len(rows) / wpr
	if havePOPCNT && n > 0 {
		_, _, _, _, _ = w0[wpr-1], w1[wpr-1], w2[wpr-1], w3[wpr-1], cnt[4*n-1]
		popcounts4asm(&rows[0], wpr, n, &w0[0], &w1[0], &w2[0], &w3[0], &cnt[0])
		return
	}
	popcounts4go(rows, wpr, w0, w1, w2, w3, cnt)
}
