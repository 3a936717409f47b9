//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// The filter gradient's and the input gradient's kernels. Like the
// tiles (gemm_amd64.s), they multiply (VMULPD) and add (VADDPD) in the
// Go loops' order and never fuse the two, so every sum keeps its twin's
// bits, and every instruction is VEX-encoded.

// tapMask's window at +32 − 8·kw has lanes 0 … kw − 1 set.
DATA tapMask<>+0(SB)/8, $-1
DATA tapMask<>+8(SB)/8, $-1
DATA tapMask<>+16(SB)/8, $-1
DATA tapMask<>+24(SB)/8, $-1
DATA tapMask<>+32(SB)/8, $0
DATA tapMask<>+40(SB)/8, $0
DATA tapMask<>+48(SB)/8, $0
DATA tapMask<>+56(SB)/8, $0
GLOBL tapMask<>(SB), RODATA|NOPTR, $64

// func tapRowsAVX2(dw, xp, v *float64, off, taps *int, rows, kw, n int, db float64) float64
//
// A pass over the list holds four rows' sums in Y0–Y3 and their load
// addresses, xp + taps[r·kw], in R12, R13, R14 and SI; a row left over
// takes a pass of its own. Every pass also sums db and the entries in
// X13, off the rows' dependency chains, and each leaves the same sum.
TEXT ·tapRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ    dw+0(FP), DI
	MOVQ    v+16(FP), R8
	MOVQ    off+24(FP), R9
	MOVQ    taps+32(FP), R10
	MOVQ    rows+40(FP), CX
	MOVQ    kw+48(FP), R11
	MOVQ    n+56(FP), DX
	LEAQ    tapMask<>+32(SB), AX
	MOVQ    R11, BX
	SHLQ    $3, BX
	SUBQ    BX, AX
	VMOVDQU (AX), Y15                  // lanes < kw
	SHLQ    $3, R11                    // row stride of dw and taps, bytes
	VMOVSD  db+64(FP), X12
	VMOVAPD X12, X13
	CMPQ    CX, $4
	JLT     rows1

pass4:
	MOVQ    xp+8(FP), AX
	MOVQ    (R10), BX
	LEAQ    (AX)(BX*8), R12
	MOVQ    (R10)(R11*1), BX
	LEAQ    (AX)(BX*8), R13
	MOVQ    (R10)(R11*2), BX
	LEAQ    (AX)(BX*8), R14
	LEAQ    (R10)(R11*2), BX
	MOVQ    (BX)(R11*1), BX
	LEAQ    (AX)(BX*8), SI
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VMOVAPD X12, X13
	XORQ    BX, BX

entry4:
	MOVQ         (R9)(BX*8), AX        // the entry's offset
	VBROADCASTSD (R8)(BX*8), Y4        // and value
	VMULPD       (R12)(AX*8), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       (R13)(AX*8), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       (R14)(AX*8), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       (SI)(AX*8), Y4, Y8
	VADDPD       Y8, Y3, Y3
	VADDSD       X4, X13, X13
	INCQ         BX
	CMPQ         BX, DX
	JLT          entry4

	VMASKMOVPD (DI), Y15, Y5
	VADDPD     Y0, Y5, Y5              // dw + sum
	VMASKMOVPD Y5, Y15, (DI)
	VMASKMOVPD (DI)(R11*1), Y15, Y5
	VADDPD     Y1, Y5, Y5
	VMASKMOVPD Y5, Y15, (DI)(R11*1)
	VMASKMOVPD (DI)(R11*2), Y15, Y5
	VADDPD     Y2, Y5, Y5
	VMASKMOVPD Y5, Y15, (DI)(R11*2)
	LEAQ       (DI)(R11*2), AX
	VMASKMOVPD (AX)(R11*1), Y15, Y5
	VADDPD     Y3, Y5, Y5
	VMASKMOVPD Y5, Y15, (AX)(R11*1)
	LEAQ       (AX)(R11*2), DI
	LEAQ       (R10)(R11*4), R10
	SUBQ       $4, CX
	CMPQ       CX, $4
	JGE        pass4

rows1:
	TESTQ CX, CX
	JZ    done

pass1:
	MOVQ    xp+8(FP), AX
	MOVQ    (R10), BX
	LEAQ    (AX)(BX*8), R12
	VXORPD  Y0, Y0, Y0
	VMOVAPD X12, X13
	XORQ    BX, BX

entry1:
	MOVQ         (R9)(BX*8), AX
	VBROADCASTSD (R8)(BX*8), Y4
	VMULPD       (R12)(AX*8), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VADDSD       X4, X13, X13
	INCQ         BX
	CMPQ         BX, DX
	JLT          entry1

	VMASKMOVPD (DI), Y15, Y5
	VADDPD     Y0, Y5, Y5
	VMASKMOVPD Y5, Y15, (DI)
	ADDQ       R11, DI
	ADDQ       R11, R10
	DECQ       CX
	JNZ        pass1

done:
	VMOVSD     X13, ret+72(FP)
	VZEROUPPER
	RET

// nzPerm holds, for each 4-bit mask, the VPERMD order that moves the
// quad's lanes whose bit is set, in ascending order, to the front: lane
// l is dwords 2l and 2l + 1, two to a quadword.
DATA nzPerm<>+0(SB)/8, $0x0000000100000000
DATA nzPerm<>+8(SB)/8, $0x0000000100000000
DATA nzPerm<>+16(SB)/8, $0x0000000100000000
DATA nzPerm<>+24(SB)/8, $0x0000000100000000
DATA nzPerm<>+32(SB)/8, $0x0000000100000000
DATA nzPerm<>+40(SB)/8, $0x0000000100000000
DATA nzPerm<>+48(SB)/8, $0x0000000100000000
DATA nzPerm<>+56(SB)/8, $0x0000000100000000
DATA nzPerm<>+64(SB)/8, $0x0000000300000002
DATA nzPerm<>+72(SB)/8, $0x0000000100000000
DATA nzPerm<>+80(SB)/8, $0x0000000100000000
DATA nzPerm<>+88(SB)/8, $0x0000000100000000
DATA nzPerm<>+96(SB)/8, $0x0000000100000000
DATA nzPerm<>+104(SB)/8, $0x0000000300000002
DATA nzPerm<>+112(SB)/8, $0x0000000100000000
DATA nzPerm<>+120(SB)/8, $0x0000000100000000
DATA nzPerm<>+128(SB)/8, $0x0000000500000004
DATA nzPerm<>+136(SB)/8, $0x0000000100000000
DATA nzPerm<>+144(SB)/8, $0x0000000100000000
DATA nzPerm<>+152(SB)/8, $0x0000000100000000
DATA nzPerm<>+160(SB)/8, $0x0000000100000000
DATA nzPerm<>+168(SB)/8, $0x0000000500000004
DATA nzPerm<>+176(SB)/8, $0x0000000100000000
DATA nzPerm<>+184(SB)/8, $0x0000000100000000
DATA nzPerm<>+192(SB)/8, $0x0000000300000002
DATA nzPerm<>+200(SB)/8, $0x0000000500000004
DATA nzPerm<>+208(SB)/8, $0x0000000100000000
DATA nzPerm<>+216(SB)/8, $0x0000000100000000
DATA nzPerm<>+224(SB)/8, $0x0000000100000000
DATA nzPerm<>+232(SB)/8, $0x0000000300000002
DATA nzPerm<>+240(SB)/8, $0x0000000500000004
DATA nzPerm<>+248(SB)/8, $0x0000000100000000
DATA nzPerm<>+256(SB)/8, $0x0000000700000006
DATA nzPerm<>+264(SB)/8, $0x0000000100000000
DATA nzPerm<>+272(SB)/8, $0x0000000100000000
DATA nzPerm<>+280(SB)/8, $0x0000000100000000
DATA nzPerm<>+288(SB)/8, $0x0000000100000000
DATA nzPerm<>+296(SB)/8, $0x0000000700000006
DATA nzPerm<>+304(SB)/8, $0x0000000100000000
DATA nzPerm<>+312(SB)/8, $0x0000000100000000
DATA nzPerm<>+320(SB)/8, $0x0000000300000002
DATA nzPerm<>+328(SB)/8, $0x0000000700000006
DATA nzPerm<>+336(SB)/8, $0x0000000100000000
DATA nzPerm<>+344(SB)/8, $0x0000000100000000
DATA nzPerm<>+352(SB)/8, $0x0000000100000000
DATA nzPerm<>+360(SB)/8, $0x0000000300000002
DATA nzPerm<>+368(SB)/8, $0x0000000700000006
DATA nzPerm<>+376(SB)/8, $0x0000000100000000
DATA nzPerm<>+384(SB)/8, $0x0000000500000004
DATA nzPerm<>+392(SB)/8, $0x0000000700000006
DATA nzPerm<>+400(SB)/8, $0x0000000100000000
DATA nzPerm<>+408(SB)/8, $0x0000000100000000
DATA nzPerm<>+416(SB)/8, $0x0000000100000000
DATA nzPerm<>+424(SB)/8, $0x0000000500000004
DATA nzPerm<>+432(SB)/8, $0x0000000700000006
DATA nzPerm<>+440(SB)/8, $0x0000000100000000
DATA nzPerm<>+448(SB)/8, $0x0000000300000002
DATA nzPerm<>+456(SB)/8, $0x0000000500000004
DATA nzPerm<>+464(SB)/8, $0x0000000700000006
DATA nzPerm<>+472(SB)/8, $0x0000000100000000
DATA nzPerm<>+480(SB)/8, $0x0000000100000000
DATA nzPerm<>+488(SB)/8, $0x0000000300000002
DATA nzPerm<>+496(SB)/8, $0x0000000500000004
DATA nzPerm<>+504(SB)/8, $0x0000000700000006
GLOBL nzPerm<>(SB), RODATA|NOPTR, $512

// nzCount holds each 4-bit mask's number of set bits, a byte each.
DATA nzCount<>+0(SB)/8, $0x0302020102010100
DATA nzCount<>+8(SB)/8, $0x0403030203020201
GLOBL nzCount<>(SB), RODATA|NOPTR, $16

// func nzScan(v *float64, off *int, row *float64, pos *int, base, quads, n int) (read, count int)
TEXT ·nzScan(SB), NOSPLIT, $0-72
	MOVQ         v+0(FP), DI
	MOVQ         off+8(FP), R8
	MOVQ         row+16(FP), SI
	MOVQ         pos+24(FP), R9
	VPBROADCASTQ base+32(FP), Y1
	MOVQ         quads+40(FP), CX
	MOVQ         n+48(FP), DX
	LEAQ         nzPerm<>(SB), R10
	LEAQ         nzCount<>(SB), R11
	VXORPD       Y0, Y0, Y0
	XORQ         BX, BX                // entries read

quad:
	VMOVUPD   (SI)(BX*8), Y2
	VCMPPD    $4, Y0, Y2, Y3           // x != 0 (NEQ_UQ: NaN too)
	VMOVMSKPD Y3, AX
	VPADDQ    (R9)(BX*8), Y1, Y4       // base + pos
	MOVQ      AX, R12
	SHLQ      $5, R12
	VMOVDQU   (R10)(R12*1), Y5
	VPERMD    Y2, Y5, Y2
	VPERMD    Y4, Y5, Y4
	VMOVUPD   Y2, (DI)(DX*8)
	VMOVDQU   Y4, (R8)(DX*8)
	MOVBQZX   (R11)(AX*1), R12
	ADDQ      R12, DX
	ADDQ      $4, BX
	DECQ      CX
	JZ        done
	CMPQ      DX, $(const_nzChunk-4)  // room for another quad
	JLE       quad

done:
	MOVQ       BX, read+56(FP)
	MOVQ       DX, count+64(FP)
	VZEROUPPER
	RET

// func addTapRowAVX2(dst, rows *float64, pg, kw, n int)
//
// Element j of dst gains rows[kx·pg + j − kx] for each kx with
// 0 ≤ j − kx < pg, in ascending kx; from row kx to row kx + 1 that
// address steps (pg − 1)·8 bytes. Every row reaches j in [kw − 1, pg):
// there sixteen elements (four independent sums), then four, take
// VADDPDs, and the elements left over, at either end or past the last
// whole quad, take VADDSDs over the rows that reach them.
TEXT ·addTapRowAVX2(SB), NOSPLIT, $0-40
	MOVQ    dst+0(FP), DI
	MOVQ    rows+8(FP), SI
	MOVQ    pg+16(FP), R8
	MOVQ    kw+24(FP), R9
	MOVQ    n+32(FP), R10
	LEAQ    -1(R8), R11
	SHLQ    $3, R11                    // (pg − 1)·8
	MOVQ    R8, R12
	CMPQ    R10, R12
	CMOVQLT R10, R12                   // min(pg, n): whole-row elements end
	LEAQ    -1(R9), R13                // kw − 1: and start
	XORQ    AX, AX                     // j

elem:
	CMPQ AX, R10
	JGE  added
	CMPQ AX, R13
	JLT  one
	LEAQ 16(AX), BX
	CMPQ BX, R12
	JGT  quad

	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD 64(DI)(AX*8), Y2
	VMOVUPD 96(DI)(AX*8), Y3
	LEAQ    (SI)(AX*8), DX             // row 0 at j
	MOVQ    R9, CX

rows16:
	VADDPD (DX), Y0, Y0
	VADDPD 32(DX), Y1, Y1
	VADDPD 64(DX), Y2, Y2
	VADDPD 96(DX), Y3, Y3
	ADDQ   R11, DX
	DECQ   CX
	JNZ    rows16

	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	MOVQ    BX, AX
	JMP     elem

quad:
	LEAQ 4(AX), BX
	CMPQ BX, R12
	JGT  one

	VMOVUPD (DI)(AX*8), Y0
	LEAQ    (SI)(AX*8), DX
	MOVQ    R9, CX

rows4:
	VADDPD (DX), Y0, Y0
	ADDQ   R11, DX
	DECQ   CX
	JNZ    rows4

	VMOVUPD Y0, (DI)(AX*8)
	MOVQ    BX, AX
	JMP     elem

one:
	// rows max(0, j − pg + 1) … min(kw − 1, j)
	MOVQ    AX, BX
	SUBQ    R8, BX
	INCQ    BX
	XORQ    CX, CX
	CMPQ    BX, CX
	CMOVQLT CX, BX                     // first row
	MOVQ    R13, CX
	CMPQ    AX, CX
	CMOVQLT AX, CX                     // last row
	SUBQ    BX, CX
	INCQ    CX                         // rows, at least one
	MOVQ    BX, DX
	IMULQ   R11, DX
	ADDQ    SI, DX
	LEAQ    (DX)(AX*8), DX             // first row at j
	VMOVSD  (DI)(AX*8), X0

rows1add:
	VADDSD (DX), X0, X0
	ADDQ   R11, DX
	DECQ   CX
	JNZ    rows1add

	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    elem

added:
	VZEROUPPER
	RET
