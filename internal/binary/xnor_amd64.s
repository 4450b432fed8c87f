#include "textflag.h"

// func cpuid1ecx() uint32
TEXT ·cpuid1ecx(SB), NOSPLIT, $0-4
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, ret+0(FP)
	RET

// func popcounts4asm(rows *uint64, wpr, nrows int, w0, w1, w2, w3 *uint64, cnt *int32)
//
// For each of nrows rows of wpr words: popcount(row XOR w_r) for the four
// weight rows, written as int32 to cnt[4*i : 4*i+4]. Each row word is
// XORed against the same word of all four weight rows before the next
// word; POPCNT writes its own source register, so the false output
// dependency some cores carry on POPCNT's destination never chains
// iterations. One call covers many short rows (a conv's column rows are
// 9-27 words), so the call cost is paid per tile, not per row. Needs
// wpr >= 1 and nrows >= 1.
TEXT ·popcounts4asm(SB), NOSPLIT, $0-64
	MOVQ rows+0(FP), SI
	MOVQ wpr+8(FP), CX
	MOVQ w0+24(FP), R8
	MOVQ w1+32(FP), R9
	MOVQ w2+40(FP), R10
	MOVQ w3+48(FP), R11
	MOVQ cnt+56(FP), DI

row:
	XORQ AX, AX
	XORQ BX, BX
	XORQ DX, DX
	XORQ R12, R12
	XORQ R13, R13

word:
	MOVQ    (SI)(R13*8), R14
	XORQ    (R8)(R13*8), R14
	POPCNTQ R14, R14
	ADDQ    R14, AX
	MOVQ    (SI)(R13*8), R14
	XORQ    (R9)(R13*8), R14
	POPCNTQ R14, R14
	ADDQ    R14, BX
	MOVQ    (SI)(R13*8), R14
	XORQ    (R10)(R13*8), R14
	POPCNTQ R14, R14
	ADDQ    R14, DX
	MOVQ    (SI)(R13*8), R14
	XORQ    (R11)(R13*8), R14
	POPCNTQ R14, R14
	ADDQ    R14, R12
	INCQ    R13
	CMPQ    R13, CX
	JLT     word

	MOVL AX, 0(DI)
	MOVL BX, 4(DI)
	MOVL DX, 8(DI)
	MOVL R12, 12(DI)
	LEAQ (SI)(CX*8), SI
	ADDQ $16, DI
	DECQ nrows+16(FP)
	JNZ  row
	RET
