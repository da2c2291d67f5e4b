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

// func graphWalkAVX2(out, u []float64, k int, ptr []int, adj []int32, laplacian bool) (s float64, ok bool)
//
// Rows run in ascending order, R8 pointing at ptr[i+1], DX at u_i and DI
// at out_i. A row's neighbour list is checked first: ptr[i] ≤ ptr[i+1] ≤
// len(adj) and every index in [0, N) (compared unsigned, so a negative one
// fails too); nothing of the row is loaded before that.
//
// K ≥ 4: the sums go in panels of sixteen coefficients, one walk of the
// list per panel with the panel's four groups of four lanes in Y0–Y3. A
// group that would run past the row's end is moved back to end there, so
// the groups of a panel start at min(base + 4t, K − 4), t = 0…3: a moved
// group repeats lanes of the group before it with the same operations, so
// its stores write the same bits again. A last walk adds the squared
// differences of the edges j ≥ i to the chain s in X15, lane by lane in
// coefficient order: the full groups of four, then, where r = K mod 4 ≠ 0,
// the row's last four coefficients, of which only the top r lanes join.
//
// K < 4: the one group is loaded and stored under the mask of its K lanes
// (Y14), and its first K lanes join the chain.
TEXT ·graphWalkAVX2(SB), NOSPLIT, $32-121
	MOVQ out_base+0(FP), DI
	MOVQ u_base+24(FP), SI
	MOVQ k+48(FP), R10
	MOVQ ptr_base+56(FP), R8
	MOVQ ptr_len+64(FP), AX
	LEAQ (R8)(AX*8), BX
	MOVQ BX, pend-8(SP)        // &ptr[N+1]
	DECQ AX
	MOVQ AX, n-16(SP)          // N
	MOVQ adj_base+80(FP), R9
	MOVQ adj_len+88(FP), AX
	MOVQ AX, nadj-24(SP)
	LANEMASK(R10, AX, Y14)
	SHLQ $3, R10               // a row of U or out, in bytes
	MOVQ SI, DX                // u_i
	VXORPD X15, X15, X15       // s
	MOVQ (R8), R12             // ptr[0], checked by the caller
	ADDQ $8, R8

gwrows:
	CMPQ R8, pend-8(SP)
	JCC  gwdone
	MOVQ R12, R11              // p0 = ptr[i]
	MOVQ (R8), R12             // p1 = ptr[i+1]
	CMPQ R12, R11
	JLT  gwbad
	CMPQ R12, nadj-24(SP)
	JGT  gwbad
	MOVQ R11, CX

gwcheck:
	CMPQ CX, R12
	JGE  gwsums
	MOVLQSX (R9)(CX*4), AX
	CMPQ AX, n-16(SP)
	JCC  gwbad
	INCQ CX
	JMP  gwcheck

gwsums:
	MOVQ R12, AX
	SUBQ R11, AX
	VCVTSI2SDQ AX, X13, X13
	VBROADCASTSD X13, Y13      // deg_i
	CMPQ R10, $32
	JLT  gwnarrow
	XORQ AX, AX                // the panel's first coefficient, bytes

gwpanel:
	LEAQ -32(R10), R13
	CMPQ AX, R13
	CMOVQGT R13, AX            // base = min(base, K − 4)
	MOVQ AX, base-32(SP)
	SUBQ AX, R13               // the last group's offset from base
	MOVQ $32, BX
	CMPQ BX, R13
	CMOVQGT R13, BX            // group 1 at min(4, K − 4 − base)
	MOVQ $96, R11
	CMPQ R11, R13
	CMOVQGT R13, R11           // group 3 at min(12, K − 4 − base)
	MOVQ $64, CX
	CMPQ R13, CX
	CMOVQGT CX, R13            // group 2 at min(8, K − 4 − base)
	LEAQ (DX)(AX*1), CX        // u_i + base
	ADDQ AX, SI                // u + base, for the neighbours' rows
	MOVQ -8(R8), AX
	CMPB laplacian+104(FP), $0
	JNE  gwplapinit
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ AX, CX

gwpsum:
	CMPQ CX, R12
	JGE  gwpstore
	MOVLQSX (R9)(CX*4), AX
	IMULQ R10, AX
	ADDQ SI, AX
	VADDPD (AX), Y0, Y0        // + u_j
	VADDPD (AX)(BX*1), Y1, Y1
	VADDPD (AX)(R13*1), Y2, Y2
	VADDPD (AX)(R11*1), Y3, Y3
	INCQ CX
	JMP  gwpsum

gwplapinit:
	VMULPD (CX), Y13, Y0       // deg_i·u_i
	VMULPD (CX)(BX*1), Y13, Y1
	VMULPD (CX)(R13*1), Y13, Y2
	VMULPD (CX)(R11*1), Y13, Y3
	MOVQ AX, CX

gwplap:
	CMPQ CX, R12
	JGE  gwpstore
	MOVLQSX (R9)(CX*4), AX
	IMULQ R10, AX
	ADDQ SI, AX
	VSUBPD (AX), Y0, Y0        // − u_j
	VSUBPD (AX)(BX*1), Y1, Y1
	VSUBPD (AX)(R13*1), Y2, Y2
	VSUBPD (AX)(R11*1), Y3, Y3
	INCQ CX
	JMP  gwplap

gwpstore:
	MOVQ base-32(SP), AX
	SUBQ AX, SI
	LEAQ (DI)(AX*1), CX        // out_i + base
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, (CX)(BX*1)
	VMOVUPD Y2, (CX)(R13*1)
	VMOVUPD Y3, (CX)(R11*1)
	ADDQ $128, AX
	CMPQ AX, R10
	JLT  gwpanel

	MOVQ -8(R8), CX            // p0
	MOVQ R10, R11
	ANDQ $-32, R11             // the full groups, bytes

gwqnbr:
	CMPQ CX, R12
	JGE  gwnext
	MOVLQSX (R9)(CX*4), AX
	INCQ CX
	IMULQ R10, AX
	ADDQ SI, AX                // u_j
	CMPQ AX, DX
	JCS  gwqnbr                // j < i: row j added the edge
	XORQ R13, R13

gwqgroup:
	VMOVUPD (DX)(R13*1), Y1
	VSUBPD (AX)(R13*1), Y1, Y1 // u_i − u_j
	VMULPD Y1, Y1, Y1
	VADDSD X1, X15, X15        // lane 0
	VPERMILPD $1, X1, X2
	VADDSD X2, X15, X15        // lane 1
	VEXTRACTF128 $1, Y1, X3
	VADDSD X3, X15, X15        // lane 2
	VPERMILPD $1, X3, X4
	VADDSD X4, X15, X15        // lane 3
	ADDQ $32, R13
	CMPQ R13, R11
	JLT  gwqgroup
	CMPQ R11, R10
	JEQ  gwqnbr                // K mod 4 = 0
	VMOVUPD -32(DX)(R10*1), Y1 // the row's last four coefficients
	VSUBPD -32(AX)(R10*1), Y1, Y1
	VMULPD Y1, Y1, Y1
	VEXTRACTF128 $1, Y1, X3
	LEAQ 24(R11), AX
	CMPQ AX, R10
	JNE  gwqlane2              // r < 3: lane 1 repeats
	VPERMILPD $1, X1, X2
	VADDSD X2, X15, X15        // lane 1

gwqlane2:
	LEAQ 8(R11), AX
	CMPQ AX, R10
	JEQ  gwqlane3              // r = 1: lane 2 repeats
	VADDSD X3, X15, X15        // lane 2

gwqlane3:
	VPERMILPD $1, X3, X4
	VADDSD X4, X15, X15        // lane 3
	JMP  gwqnbr

gwnarrow:
	CMPB laplacian+104(FP), $0
	JNE  gwnlapinit
	VXORPD Y0, Y0, Y0
	MOVQ R11, CX

gwnsum:
	CMPQ CX, R12
	JGE  gwnstore
	MOVLQSX (R9)(CX*4), AX
	IMULQ R10, AX
	VMASKMOVPD (SI)(AX*1), Y14, Y1
	VADDPD Y1, Y0, Y0          // + u_j
	INCQ CX
	JMP  gwnsum

gwnlapinit:
	VMASKMOVPD (DX), Y14, Y1
	VMULPD Y1, Y13, Y0         // deg_i·u_i
	MOVQ R11, CX

gwnlap:
	CMPQ CX, R12
	JGE  gwnstore
	MOVLQSX (R9)(CX*4), AX
	IMULQ R10, AX
	VMASKMOVPD (SI)(AX*1), Y14, Y1
	VSUBPD Y1, Y0, Y0          // − u_j
	INCQ CX
	JMP  gwnlap

gwnstore:
	VMASKMOVPD Y0, Y14, (DI)
	VMASKMOVPD (DX), Y14, Y5   // u_i
	MOVQ R11, CX

gwnqnbr:
	CMPQ CX, R12
	JGE  gwnext
	MOVLQSX (R9)(CX*4), AX
	INCQ CX
	IMULQ R10, AX
	ADDQ SI, AX                // u_j
	CMPQ AX, DX
	JCS  gwnqnbr               // j < i
	VMASKMOVPD (AX), Y14, Y1
	VSUBPD Y1, Y5, Y1          // u_i − u_j
	VMULPD Y1, Y1, Y1
	VADDSD X1, X15, X15        // lane 0
	CMPQ R10, $16
	JLT  gwnqnbr
	VPERMILPD $1, X1, X2
	VADDSD X2, X15, X15        // lane 1
	CMPQ R10, $24
	JLT  gwnqnbr
	VEXTRACTF128 $1, Y1, X3
	VADDSD X3, X15, X15        // lane 2
	JMP  gwnqnbr

gwnext:
	ADDQ R10, DI
	ADDQ R10, DX
	ADDQ $8, R8
	JMP  gwrows

gwdone:
	VZEROUPPER
	MOVSD X15, s+112(FP)
	MOVB  $1, ok+120(FP)
	RET

gwbad:
	VZEROUPPER
	MOVSD X15, s+112(FP)
	MOVB  $0, ok+120(FP)
	RET
