#include "textflag.h"

// AVX2 bodies of the row kernels (rowkernels.go). Each repeats its portable
// body's arithmetic lane for lane: a VMULPD and a VADDPD where the Go body
// multiplies and adds (no FMA), each lane one of its accumulators. The last
// partial group of four lanes is loaded and stored with VMASKMOVPD, which
// touches no element outside the slice.

// tailmask<>: four all-ones quadwords then four zero ones. The 32 bytes at
// offset 8·(4−r) mask the first r lanes.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// LANEMASK sets dst to the mask of the first min(n, 4) lanes; n > 0.
#define LANEMASK(n, tmp, dst) \
	MOVQ  $4, tmp                     \
	SUBQ  n, tmp                      \
	JGE   2(PC)                       \
	XORQ  tmp, tmp                    \
	LEAQ  tailmask<>(SB), R13         \
	VMOVDQU (R13)(tmp*8), dst

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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

// func rowMulAVX2(p, u, v []float64, m int)
//
// v starts at column lo of V's row 0, rows m apart. Lanes run over four
// columns of p; the coefficient loop runs inside the column loop, so each
// lane sees its column's additions in the Go body's order.
TEXT ·rowMulAVX2(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ u_base+24(FP), SI
	MOVQ u_len+32(FP), BX
	MOVQ v_base+48(FP), DX
	MOVQ m+72(FP), R8
	SHLQ $3, R8                // V's row stride in bytes
	LEAQ (R8)(R8*2), R9        // three rows
	VXORPD Y14, Y14, Y14

cols:
	LANEMASK(CX, AX, Y15)
	VXORPD Y0, Y0, Y0          // this group of p, cleared
	MOVQ SI, R10               // coefficient cursor
	MOVQ DX, R11               // V cursor: row t, this group's columns
	MOVQ BX, R12               // coefficients left

blocks:
	CMPQ R12, $4
	JLT  singles
	VMOVUPD (R10), Y1
	VCMPPD  $0, Y14, Y1, Y1    // a == 0, ordered: NaN is not zero
	VMOVMSKPD Y1, AX
	CMPQ AX, $15
	JEQ  nextblock             // an all-zero block adds nothing
	VBROADCASTSD (R10), Y1
	VBROADCASTSD 8(R10), Y2
	VBROADCASTSD 16(R10), Y3
	VBROADCASTSD 24(R10), Y4
	VMASKMOVPD (R11), Y15, Y5
	VMASKMOVPD (R11)(R8*1), Y15, Y6
	VMASKMOVPD (R11)(R8*2), Y15, Y7
	VMASKMOVPD (R11)(R9*1), Y15, Y8
	VMULPD Y5, Y1, Y1          // a0·v0
	VMULPD Y6, Y2, Y2          // a1·v1
	VADDPD Y2, Y1, Y1
	VMULPD Y7, Y3, Y3          // a2·v2
	VADDPD Y3, Y1, Y1
	VMULPD Y8, Y4, Y4          // a3·v3
	VADDPD Y4, Y1, Y1
	VADDPD Y0, Y1, Y0          // p += block

nextblock:
	ADDQ $32, R10
	LEAQ (R11)(R8*4), R11
	SUBQ $4, R12
	JMP  blocks

singles:
	TESTQ R12, R12
	JEQ   store
	VBROADCASTSD (R10), Y1
	VCMPPD  $0, Y14, Y1, Y2
	VMOVMSKPD Y2, AX
	TESTQ AX, AX
	JNE   nextsingle           // a zero coefficient adds nothing
	VMASKMOVPD (R11), Y15, Y5
	VMULPD Y5, Y1, Y1
	VADDPD Y0, Y1, Y0

nextsingle:
	ADDQ $8, R10
	ADDQ R8, R11
	DECQ R12
	JMP  singles

store:
	CMPQ CX, $4
	JLT  storetail
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX
	JNE  cols
	VZEROUPPER
	RET

storetail:
	VMASKMOVPD Y0, Y15, (DI)
	VZEROUPPER
	RET

// func dotPairsAVX2(num, den, x, e, vt []float64)
//
// vt is Vᵀ, M×K with K = len(num) and M = len(x). Lanes run over four
// coefficients r; the lane sums l0..l3 of num are Y0..Y3, of den Y4..Y7.
TEXT ·dotPairsAVX2(SB), NOSPLIT, $0-120
	MOVQ num_base+0(FP), DI
	MOVQ num_len+8(FP), CX
	MOVQ den_base+24(FP), R8
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), BX
	MOVQ e_base+72(FP), DX
	MOVQ vt_base+96(FP), R9
	MOVQ CX, R10
	SHLQ $3, R10               // vt's row stride in bytes
	TESTQ CX, CX
	JEQ  dpdone

dpgroups:
	LANEMASK(CX, AX, Y15)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ R9, R11               // vt cursor: row j, this group
	XORQ R12, R12              // j

dpblocks:
	LEAQ 4(R12), AX
	CMPQ AX, BX
	JGT  dpcombine
	VMASKMOVPD (R11), Y15, Y8
	VBROADCASTSD (SI)(R12*8), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y0, Y0          // l0 += x_j·V_j
	VBROADCASTSD (DX)(R12*8), Y10
	VMULPD Y8, Y10, Y10
	VADDPD Y10, Y4, Y4
	ADDQ R10, R11
	VMASKMOVPD (R11), Y15, Y8
	VBROADCASTSD 8(SI)(R12*8), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y1, Y1          // l1
	VBROADCASTSD 8(DX)(R12*8), Y10
	VMULPD Y8, Y10, Y10
	VADDPD Y10, Y5, Y5
	ADDQ R10, R11
	VMASKMOVPD (R11), Y15, Y8
	VBROADCASTSD 16(SI)(R12*8), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y2, Y2          // l2
	VBROADCASTSD 16(DX)(R12*8), Y10
	VMULPD Y8, Y10, Y10
	VADDPD Y10, Y6, Y6
	ADDQ R10, R11
	VMASKMOVPD (R11), Y15, Y8
	VBROADCASTSD 24(SI)(R12*8), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y3, Y3          // l3
	VBROADCASTSD 24(DX)(R12*8), Y10
	VMULPD Y8, Y10, Y10
	VADDPD Y10, Y7, Y7
	ADDQ R10, R11
	MOVQ AX, R12
	JMP  dpblocks

dpcombine:
	VADDPD Y2, Y0, Y0          // l0 + l2
	VADDPD Y3, Y1, Y1          // l1 + l3
	VADDPD Y1, Y0, Y0
	VADDPD Y6, Y4, Y4
	VADDPD Y7, Y5, Y5
	VADDPD Y5, Y4, Y4

dptail:
	CMPQ R12, BX
	JGE  dpstore
	VMASKMOVPD (R11), Y15, Y8
	VBROADCASTSD (SI)(R12*8), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y0, Y0
	VBROADCASTSD (DX)(R12*8), Y10
	VMULPD Y8, Y10, Y10
	VADDPD Y10, Y4, Y4
	ADDQ R10, R11
	INCQ R12
	JMP  dptail

dpstore:
	CMPQ CX, $4
	JLT  dpstoretail
	VMOVUPD Y0, (DI)
	VMOVUPD Y4, (R8)
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $4, CX
	JNE  dpgroups
	JMP  dpdone

dpstoretail:
	VMASKMOVPD Y0, Y15, (DI)
	VMASKMOVPD Y4, Y15, (R8)

dpdone:
	VZEROUPPER
	RET

// func accumPairsAVX2(num, den, u, x, e []float64)
//
// K = len(u), C = len(x). Lanes run over four coefficients r. A lane whose
// u_r is zero (VCMPPD NEQ_UQ: −0 is zero, NaN is not) keeps its old sums:
// the new ones are blended in under that mask.
TEXT ·accumPairsAVX2(SB), NOSPLIT, $0-120
	MOVQ num_base+0(FP), DI
	MOVQ den_base+24(FP), R8
	MOVQ u_base+48(FP), SI
	MOVQ u_len+56(FP), CX
	MOVQ x_base+72(FP), DX
	MOVQ x_len+80(FP), BX
	MOVQ e_base+96(FP), R9
	MOVQ CX, R10
	SHLQ $3, R10               // a column's K sums, in bytes
	TESTQ CX, CX
	JEQ  apdone
	TESTQ BX, BX
	JEQ  apdone
	VXORPD Y14, Y14, Y14

apgroups:
	LANEMASK(CX, AX, Y15)
	VMASKMOVPD (SI), Y15, Y0   // u_r for this group
	VCMPPD $4, Y14, Y0, Y1     // u_r != 0
	MOVQ DI, R11               // num cursor: column t, this group
	MOVQ R8, R12               // den cursor
	XORQ AX, AX                // t

apcols:
	VBROADCASTSD (DX)(AX*8), Y2
	VMULPD Y2, Y0, Y2          // u_r·x_t
	VMASKMOVPD (R11), Y15, Y3
	VADDPD Y2, Y3, Y2
	VBLENDVPD Y1, Y2, Y3, Y3
	VMASKMOVPD Y3, Y15, (R11)
	VBROADCASTSD (R9)(AX*8), Y4
	VMULPD Y4, Y0, Y4          // u_r·e_t
	VMASKMOVPD (R12), Y15, Y5
	VADDPD Y4, Y5, Y4
	VBLENDVPD Y1, Y4, Y5, Y5
	VMASKMOVPD Y5, Y15, (R12)
	ADDQ R10, R11
	ADDQ R10, R12
	INCQ AX
	CMPQ AX, BX
	JLT  apcols

	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, SI
	SUBQ $4, CX
	JGT  apgroups

apdone:
	VZEROUPPER
	RET
