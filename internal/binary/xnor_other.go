//go:build !amd64

package binary

// popcounts4 writes, for each of the len(rows)/wpr rows of wpr words in
// rows, popcount(row XOR w_r) for the four weight rows w0..w3 (wpr words
// each) to cnt[4*i : 4*i+4].
func popcounts4(rows []uint64, wpr int, w0, w1, w2, w3 []uint64, cnt []int32) {
	popcounts4go(rows, wpr, w0, w1, w2, w3, cnt)
}
