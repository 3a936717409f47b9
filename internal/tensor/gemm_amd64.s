//go:build amd64 && !purego

#include "textflag.h"

// The tiles keep one accumulator per output element in YMM registers:
// each tap loads the B row segment, broadcasts the four A entries, and
// adds each product to its accumulator with a separate VMULPD and
// VADDPD. A fused multiply-add rounds once, not twice, and would change
// the bits.

// func tile4x8(out, a, b, start *float64, kk, n, rs, ts, nb int)
TEXT ·tile4x8(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), DX
	MOVQ start+24(FP), R8
	MOVQ kk+32(FP), R12
	MOVQ n+40(FP), R9
	SHLQ $3, R9                  // row stride of out and b, bytes
	MOVQ rs+48(FP), R10
	SHLQ $3, R10                 // A row stride, bytes
	LEAQ (R10)(R10*2), R13       // three A rows, bytes
	MOVQ ts+56(FP), R11
	SHLQ $3, R11                 // A tap stride, bytes
	MOVQ nb+64(FP), BX
	VBROADCASTSD (R8), Y12
	VBROADCASTSD 8(R8), Y13
	VBROADCASTSD 16(R8), Y14
	VBROADCASTSD 24(R8), Y15

block8:
	VMOVAPD Y12, Y0
	VMOVAPD Y12, Y1
	VMOVAPD Y13, Y2
	VMOVAPD Y13, Y3
	VMOVAPD Y14, Y4
	VMOVAPD Y14, Y5
	VMOVAPD Y15, Y6
	VMOVAPD Y15, Y7
	MOVQ AX, SI                  // A cursor: tap t of row 0
	MOVQ DX, CX                  // B cursor: row t of the block
	MOVQ R12, R8

tap8:
	VMOVUPD (CX), Y8
	VMOVUPD 32(CX), Y9
	VBROADCASTSD (SI), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y1, Y1
	VBROADCASTSD (SI)(R10*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y3, Y3
	VBROADCASTSD (SI)(R10*2), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y5, Y5
	VBROADCASTSD (SI)(R13*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y6, Y6
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y7, Y7
	ADDQ R11, SI
	ADDQ R9, CX
	DECQ R8
	JNZ  tap8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R9*1)
	VMOVUPD Y3, 32(DI)(R9*1)
	VMOVUPD Y4, (DI)(R9*2)
	VMOVUPD Y5, 32(DI)(R9*2)
	LEAQ    (DI)(R9*2), SI
	VMOVUPD Y6, (SI)(R9*1)
	VMOVUPD Y7, 32(SI)(R9*1)
	ADDQ    $64, DI
	ADDQ    $64, DX
	DECQ    BX
	JNZ     block8
	VZEROUPPER
	RET

// func tile4x4(out, a, b, start *float64, kk, n, rs, ts int)
TEXT ·tile4x4(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), CX
	MOVQ start+24(FP), R8
	MOVQ kk+32(FP), R12
	MOVQ n+40(FP), R9
	SHLQ $3, R9
	MOVQ rs+48(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R13
	MOVQ ts+56(FP), R11
	SHLQ $3, R11
	VBROADCASTSD (R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	VBROADCASTSD 24(R8), Y3

tap4:
	VMOVUPD (CX), Y8
	VBROADCASTSD (SI), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VBROADCASTSD (SI)(R10*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y1, Y1
	VBROADCASTSD (SI)(R10*2), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y2, Y2
	VBROADCASTSD (SI)(R13*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y3, Y3
	ADDQ R11, SI
	ADDQ R9, CX
	DECQ R12
	JNZ  tap4

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R9*1)
	VMOVUPD Y2, (DI)(R9*2)
	LEAQ    (DI)(R9*2), SI
	VMOVUPD Y3, (SI)(R9*1)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
