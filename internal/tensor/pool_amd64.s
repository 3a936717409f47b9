//go:build amd64 && !purego

#include "textflag.h"

// pool2x2 handles four windows per iteration. Two loads per input row
// hold elements a b of four windows' top rows (c d of their bottom
// rows), and VUNPCKLPD/VUNPCKHPD separate them into one register per
// element, its lanes holding windows 0, 2, 1 and 3; VPERMPD puts them
// back in order before the store. The best value starts at a, or at −Inf
// when a is NaN (VMAXPD against −Inf), and b, c, d replace it only when
// strictly greater. The argmax is tracked as an offset from a (0, 1, w or
// w + 1), so a window whose offset stays 0 yields a even when nothing
// beat −Inf. Every instruction is VEX-encoded: one legacy-SSE instruction
// after the YMM registers are dirty costs a state transition per call.

DATA poolLanes<>+0(SB)/8, $0
DATA poolLanes<>+8(SB)/8, $4
DATA poolLanes<>+16(SB)/8, $2
DATA poolLanes<>+24(SB)/8, $6
GLOBL poolLanes<>(SB), RODATA|NOPTR, $32

DATA poolNegInf<>+0(SB)/8, $0xfff0000000000000
GLOBL poolNegInf<>(SB), RODATA|NOPTR, $8

DATA poolOne<>+0(SB)/8, $1
GLOBL poolOne<>(SB), RODATA|NOPTR, $8

DATA poolEight<>+0(SB)/8, $8
GLOBL poolEight<>(SB), RODATA|NOPTR, $8

// func pool2x2(dst *float64, argmax *int, src *float64, rows, groups, ow, w, base int)
TEXT ·pool2x2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), R13
	MOVQ argmax+8(FP), R14
	MOVQ src+16(FP), R12
	MOVQ rows+24(FP), CX
	MOVQ groups+32(FP), R9
	MOVQ ow+40(FP), R10
	SHLQ $3, R10                       // output row stride, bytes
	MOVQ w+48(FP), R11
	SHLQ $3, R11                       // input row stride, bytes
	LEAQ (R11)(R11*1), BX              // two input rows, bytes
	MOVQ R14, DX                       // nonzero: write the argmax
	VBROADCASTSD poolNegInf<>(SB), Y15
	VPXOR        Y14, Y14, Y14
	VPBROADCASTQ w+48(FP), Y12         // offset of c
	VPBROADCASTQ poolOne<>(SB), Y11    // offset of b
	VPADDQ       Y11, Y12, Y13         // offset of d
	VPBROADCASTQ poolEight<>(SB), Y10  // four windows, in elements
	VPADDQ       Y12, Y12, Y8          // two input rows, in elements
	VPBROADCASTQ base+56(FP), Y9
	VPADDQ       poolLanes<>(SB), Y9, Y9 // index of each a, lanes 0 2 1 3

row:
	MOVQ    R12, SI
	MOVQ    R13, DI
	MOVQ    R14, R8
	VMOVDQU Y9, Y7
	MOVQ    R9, AX

group:
	VMOVUPD   (SI), Y0                 // a0 b0 a1 b1
	VMOVUPD   32(SI), Y1               // a2 b2 a3 b3
	VUNPCKHPD Y1, Y0, Y2               // b0 b2 b1 b3
	VUNPCKLPD Y1, Y0, Y0               // a0 a2 a1 a3
	VMOVUPD   (SI)(R11*1), Y1          // c0 d0 c1 d1
	VMOVUPD   32(SI)(R11*1), Y3        // c2 d2 c3 d3
	VUNPCKHPD Y3, Y1, Y4               // d
	VUNPCKLPD Y3, Y1, Y1               // c
	VMAXPD    Y15, Y0, Y5              // best = a > −Inf ? a : −Inf
	VCMPPD    $0x1e, Y5, Y2, Y6        // b > best (GT_OQ)
	VMAXPD    Y5, Y2, Y5               // best = b > best ? b : best
	VANDPD    Y11, Y6, Y3              // offset 1 where b won, else 0
	VCMPPD    $0x1e, Y5, Y1, Y6
	VMAXPD    Y5, Y1, Y5
	VBLENDVPD Y6, Y12, Y3, Y3
	VCMPPD    $0x1e, Y5, Y4, Y6
	VMAXPD    Y5, Y4, Y5
	VBLENDVPD Y6, Y13, Y3, Y3
	VPCMPEQQ  Y14, Y3, Y6              // offset 0: the window yields a
	VBLENDVPD Y6, Y0, Y5, Y5
	VPERMPD   $0xd8, Y5, Y5            // lanes back to windows 0 1 2 3
	VMOVUPD   Y5, (DI)
	TESTQ     DX, DX
	JZ        next
	VPADDQ    Y7, Y3, Y3
	VPERMQ    $0xd8, Y3, Y3
	VMOVDQU   Y3, (R8)
	ADDQ      $32, R8

next:
	VPADDQ Y10, Y7, Y7
	ADDQ   $64, SI
	ADDQ   $32, DI
	DECQ   AX
	JNZ    group

	ADDQ   BX, R12
	ADDQ   R10, R13
	ADDQ   R10, R14
	VPADDQ Y8, Y9, Y9
	DECQ   CX
	JNZ    row
	VZEROUPPER
	RET

// unpool2x2 reverses pool2x2's layout: four windows' gradients, in lanes
// 0 1 2 3, are masked into one register per element a, b, c, d, and
// VUNPCKLPD/VUNPCKHPD with VPERM2F128 interleave a with b (c with d)
// into the two input rows.

DATA unpoolLanes<>+0(SB)/8, $0
DATA unpoolLanes<>+8(SB)/8, $2
DATA unpoolLanes<>+16(SB)/8, $4
DATA unpoolLanes<>+24(SB)/8, $6
GLOBL unpoolLanes<>(SB), RODATA|NOPTR, $32

// func unpool2x2(dx, grad *float64, argmax *int, rows, groups, w, base int)
TEXT ·unpool2x2(SB), NOSPLIT, $0-56
	MOVQ dx+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ argmax+16(FP), R8
	MOVQ rows+24(FP), CX
	MOVQ groups+32(FP), R9
	MOVQ w+40(FP), R11
	SHLQ $3, R11                       // input row stride, bytes
	VPXOR        Y14, Y14, Y14         // +0, and offset of a
	VPBROADCASTQ poolOne<>(SB), Y11    // offset of b
	VPBROADCASTQ w+40(FP), Y12         // offset of c
	VPADDQ       Y11, Y12, Y13         // offset of d
	VPBROADCASTQ poolEight<>(SB), Y10  // four windows, in elements
	VPBROADCASTQ base+48(FP), Y9
	VPADDQ       unpoolLanes<>(SB), Y9, Y9 // index of each a

unrow:
	MOVQ R9, AX

ungroup:
	VMOVDQU    (R8), Y0
	VPSUBQ     Y9, Y0, Y0              // argmax offset within each window
	VMOVUPD    (SI), Y1
	VADDPD     Y14, Y1, Y1             // +0 + g
	VPCMPEQQ   Y14, Y0, Y2
	VANDPD     Y1, Y2, Y2              // a
	VPCMPEQQ   Y11, Y0, Y3
	VANDPD     Y1, Y3, Y3              // b
	VPCMPEQQ   Y12, Y0, Y4
	VANDPD     Y1, Y4, Y4              // c
	VPCMPEQQ   Y13, Y0, Y5
	VANDPD     Y1, Y5, Y5              // d
	VUNPCKLPD  Y3, Y2, Y6              // a0 b0 a2 b2
	VUNPCKHPD  Y3, Y2, Y2              // a1 b1 a3 b3
	VPERM2F128 $0x20, Y2, Y6, Y3       // a0 b0 a1 b1
	VPERM2F128 $0x31, Y2, Y6, Y6       // a2 b2 a3 b3
	VMOVUPD    Y3, (DI)
	VMOVUPD    Y6, 32(DI)
	VUNPCKLPD  Y5, Y4, Y6              // c0 d0 c2 d2
	VUNPCKHPD  Y5, Y4, Y4              // c1 d1 c3 d3
	VPERM2F128 $0x20, Y4, Y6, Y5
	VPERM2F128 $0x31, Y4, Y6, Y6
	VMOVUPD    Y5, (DI)(R11*1)
	VMOVUPD    Y6, 32(DI)(R11*1)
	VPADDQ     Y10, Y9, Y9
	ADDQ       $32, R8
	ADDQ       $32, SI
	ADDQ       $64, DI
	DECQ       AX
	JNZ        ungroup

	ADDQ   R11, DI                     // past the bottom row
	VPADDQ Y12, Y9, Y9
	DECQ   CX
	JNZ    unrow
	VZEROUPPER
	RET
