// AVX2 and AVX-512 VNNI kernels (see simd_amd64.go). The float64 kernels
// (gemmF64Asm, attnAVF64Asm, expShiftSumAsm, geluF64Asm) are bitwise equal
// to their Go mirrors: they vectorize across independent outputs only and
// round every product before adding it (VMULPD then VADDPD, never FMA),
// and the exp and tanh lanes run the scalar ports' operations in their
// order, so float64 stays the bitwise-golden path on every amd64 host.
// The rest serve the low-precision int8 path.

#include "textflag.h"

// 8-lane float32 constant vectors for the exp core.
DATA explo<>+0(SB)/4, $0xC2AE0000 // -87
DATA explo<>+4(SB)/4, $0xC2AE0000
DATA explo<>+8(SB)/4, $0xC2AE0000
DATA explo<>+12(SB)/4, $0xC2AE0000
DATA explo<>+16(SB)/4, $0xC2AE0000
DATA explo<>+20(SB)/4, $0xC2AE0000
DATA explo<>+24(SB)/4, $0xC2AE0000
DATA explo<>+28(SB)/4, $0xC2AE0000
GLOBL explo<>(SB), RODATA, $32

DATA exphi<>+0(SB)/4, $0x42B00000 // 88
DATA exphi<>+4(SB)/4, $0x42B00000
DATA exphi<>+8(SB)/4, $0x42B00000
DATA exphi<>+12(SB)/4, $0x42B00000
DATA exphi<>+16(SB)/4, $0x42B00000
DATA exphi<>+20(SB)/4, $0x42B00000
DATA exphi<>+24(SB)/4, $0x42B00000
DATA exphi<>+28(SB)/4, $0x42B00000
GLOBL exphi<>(SB), RODATA, $32

DATA expp7<>+0(SB)/4, $0x39500D01 // 1/5040
DATA expp7<>+4(SB)/4, $0x39500D01
DATA expp7<>+8(SB)/4, $0x39500D01
DATA expp7<>+12(SB)/4, $0x39500D01
DATA expp7<>+16(SB)/4, $0x39500D01
DATA expp7<>+20(SB)/4, $0x39500D01
DATA expp7<>+24(SB)/4, $0x39500D01
DATA expp7<>+28(SB)/4, $0x39500D01
GLOBL expp7<>(SB), RODATA, $32

DATA expp6<>+0(SB)/4, $0x3AB60B61 // 1/720
DATA expp6<>+4(SB)/4, $0x3AB60B61
DATA expp6<>+8(SB)/4, $0x3AB60B61
DATA expp6<>+12(SB)/4, $0x3AB60B61
DATA expp6<>+16(SB)/4, $0x3AB60B61
DATA expp6<>+20(SB)/4, $0x3AB60B61
DATA expp6<>+24(SB)/4, $0x3AB60B61
DATA expp6<>+28(SB)/4, $0x3AB60B61
GLOBL expp6<>(SB), RODATA, $32

DATA expp5<>+0(SB)/4, $0x3C088889 // 1/120
DATA expp5<>+4(SB)/4, $0x3C088889
DATA expp5<>+8(SB)/4, $0x3C088889
DATA expp5<>+12(SB)/4, $0x3C088889
DATA expp5<>+16(SB)/4, $0x3C088889
DATA expp5<>+20(SB)/4, $0x3C088889
DATA expp5<>+24(SB)/4, $0x3C088889
DATA expp5<>+28(SB)/4, $0x3C088889
GLOBL expp5<>(SB), RODATA, $32

DATA expp4<>+0(SB)/4, $0x3D2AAAAB // 1/24
DATA expp4<>+4(SB)/4, $0x3D2AAAAB
DATA expp4<>+8(SB)/4, $0x3D2AAAAB
DATA expp4<>+12(SB)/4, $0x3D2AAAAB
DATA expp4<>+16(SB)/4, $0x3D2AAAAB
DATA expp4<>+20(SB)/4, $0x3D2AAAAB
DATA expp4<>+24(SB)/4, $0x3D2AAAAB
DATA expp4<>+28(SB)/4, $0x3D2AAAAB
GLOBL expp4<>(SB), RODATA, $32

DATA expp3<>+0(SB)/4, $0x3E2AAAAB // 1/6
DATA expp3<>+4(SB)/4, $0x3E2AAAAB
DATA expp3<>+8(SB)/4, $0x3E2AAAAB
DATA expp3<>+12(SB)/4, $0x3E2AAAAB
DATA expp3<>+16(SB)/4, $0x3E2AAAAB
DATA expp3<>+20(SB)/4, $0x3E2AAAAB
DATA expp3<>+24(SB)/4, $0x3E2AAAAB
DATA expp3<>+28(SB)/4, $0x3E2AAAAB
GLOBL expp3<>(SB), RODATA, $32

// EXPCORE: Y0 = e^Y0 (clamped to [-87, 88]) using the same range
// reduction and degree-7 polynomial as fastExp32, 8 lanes at a time.
// Clobbers Y1-Y3. Requires Y8=invLn2, Y9=magic(1.5·2²³), Y10=c1, Y11=c2,
// Y12=1.0 (whose bits are also the 127<<23 exponent bias), Y13=0.5.
#define EXPCORE \
	VMAXPS explo<>(SB), Y0, Y0   \
	VMINPS exphi<>(SB), Y0, Y0   \
	VMOVAPS Y0, Y1               \
	VFMADD132PS Y8, Y9, Y1       \ // Y1 = x·invLn2 + magic (k in low mantissa)
	VSUBPS Y9, Y1, Y2            \ // Y2 = float(k)
	VFNMADD231PS Y10, Y2, Y0     \ // x -= k·c1
	VFNMADD231PS Y11, Y2, Y0     \ // x -= k·c2 → r
	VMOVUPS expp7<>(SB), Y3      \
	VFMADD213PS expp6<>(SB), Y0, Y3 \
	VFMADD213PS expp5<>(SB), Y0, Y3 \
	VFMADD213PS expp4<>(SB), Y0, Y3 \
	VFMADD213PS expp3<>(SB), Y0, Y3 \
	VFMADD213PS Y13, Y0, Y3      \ // ·r + 1/2
	VFMADD213PS Y12, Y0, Y3      \ // ·r + 1
	VFMADD213PS Y12, Y0, Y3      \ // ·r + 1
	VCVTTPS2DQ Y2, Y2            \ // k (exact: Y2 is integral)
	VPSLLD $23, Y2, Y2           \
	VPADDD Y12, Y2, Y2           \ // 2^k bits (bias add = 1.0f bits)
	VMULPS Y2, Y3, Y0

// 4-byte scalar constants, broadcast at kernel entry.
DATA cinvln2<>+0(SB)/4, $0x3FB8AA3B // 1.442695
GLOBL cinvln2<>(SB), RODATA, $4

DATA cmagic<>+0(SB)/4, $0x4B400000 // 1.5·2²³
GLOBL cmagic<>(SB), RODATA, $4

DATA cc1<>+0(SB)/4, $0x3F318000 // 0.693359375
GLOBL cc1<>(SB), RODATA, $4

DATA cc2<>+0(SB)/4, $0xB95E8083 // -2.12194440e-4
GLOBL cc2<>(SB), RODATA, $4

DATA cone<>+0(SB)/4, $0x3F800000 // 1.0
GLOBL cone<>(SB), RODATA, $4

DATA chalf<>+0(SB)/4, $0x3F000000 // 0.5
GLOBL chalf<>(SB), RODATA, $4

DATA ctwo<>+0(SB)/4, $0x40000000 // 2.0
GLOBL ctwo<>(SB), RODATA, $4

DATA cgeluc<>+0(SB)/4, $0x3F4C422A // √(2/π)
GLOBL cgeluc<>(SB), RODATA, $4

DATA cgelua<>+0(SB)/4, $0x3D372713 // 0.044715
GLOBL cgelua<>(SB), RODATA, $4

// EXPSETUP loads the shared exp constants into Y8-Y13.
#define EXPSETUP \
	VBROADCASTSS cinvln2<>(SB), Y8 \
	VBROADCASTSS cmagic<>(SB), Y9  \
	VBROADCASTSS cc1<>(SB), Y10    \
	VBROADCASTSS cc2<>(SB), Y11    \
	VBROADCASTSS cone<>(SB), Y12   \
	VBROADCASTSS chalf<>(SB), Y13

// func x86HasAVX2FMA() bool
//
// CPUID.1:ECX must report FMA (bit 12), OSXSAVE (bit 27) and AVX (bit 28);
// XGETBV(0) must show XMM+YMM state enabled (bits 1:2); CPUID.7.0:EBX must
// report AVX2 (bit 5).
TEXT ·x86HasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	MOVL CX, DI
	ANDL $(1<<27 | 1<<28 | 1<<12), DI
	CMPL DI, $(1<<27 | 1<<28 | 1<<12)
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	TESTL $(1<<5), BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func x86HasAVX512VNNI() bool
//
// Requires OSXSAVE with full ZMM/opmask state (XCR0[7:5] and [2:1]),
// AVX512F (CPUID.7.0:EBX[16]), AVX512BW (EBX[30]) for the ZMM-width
// VPMOVSXBW, and AVX512_VNNI (CPUID.7.0:ECX[11]).
TEXT ·x86HasAVX512VNNI(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  vno
	MOVL $1, AX
	CPUID
	TESTL $(1<<27), CX
	JZ   vno
	MOVL $0, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  vno
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	MOVL BX, DI
	ANDL $(1<<16 | 1<<30), DI
	CMPL DI, $(1<<16 | 1<<30)
	JNE  vno
	TESTL $(1<<11), CX
	JZ   vno
	MOVB $1, ret+0(FP)
	RET

vno:
	MOVB $0, ret+0(FP)
	RET

// TILEROWS points AX, BX, R11, R12 at the qa rows of the next group of
// four (row stride R8 bytes) and stores the acc byte offsets of rows 1–3
// (row stride R10 bytes) in the frame at o1, o2, o3. With CX < 4 rows
// left, the missing slots repeat the last row: its values are computed
// and stored again, and nothing outside the tile is touched.
#define TILEROWS \
	XORQ    R9, R9            \
	LEAQ    (AX)(R8*1), BX    \
	CMPQ    CX, $1            \
	CMOVQLE AX, BX            \
	CMOVQGT R10, R9           \
	MOVQ    R9, o1-8(SP)      \
	LEAQ    (BX)(R8*1), R11   \
	LEAQ    (R9)(R10*1), R14  \
	CMPQ    CX, $2            \
	CMOVQLE BX, R11           \
	CMOVQLE R9, R14           \
	MOVQ    R14, o2-16(SP)    \
	LEAQ    (R11)(R8*1), R12  \
	LEAQ    (R14)(R10*1), R9  \
	CMPQ    CX, $3            \
	CMOVQLE R11, R12          \
	CMOVQLE R14, R9           \
	MOVQ    R9, o3-24(SP)

// func int8TileAVX2(qa []int16, wt []int8, acc []int32, rows, kPad, nPad int)
//
// Blocked channel-pair layout (see Int8Matrix): per 16-channel block, each
// k-pair contributes 32 consecutive weight bytes (channel-major pairs).
// Four rows at a time: each k-pair's weights are sign-extended once into
// Y8/Y9 (channels 0–7, 8–15) and multiplied by each row's broadcast
// activation pair with VPMADDWD; VPADDD accumulates into Y0–Y7 (row r in
// Y(2r), Y(2r+1)) — no horizontal reduction anywhere.
TEXT ·int8TileAVX2(SB), NOSPLIT, $24-96
	MOVQ qa_base+0(FP), AX
	MOVQ wt_base+24(FP), R13
	MOVQ acc_base+48(FP), DX
	MOVQ rows+72(FP), CX
	MOVQ kPad+80(FP), R8
	MOVQ nPad+88(FP), R10
	SHLQ $1, R8              // qa row stride in bytes, also the k bound
	SHLQ $2, R10             // acc row stride in bytes
	TESTQ R8, R8
	JZ   adone
	TESTQ R10, R10
	JZ   adone
	TESTQ CX, CX
	JLE  adone

agroup:
	TILEROWS
	MOVQ R13, DI             // weights, block 0
	MOVQ DX, SI              // acc of the group's row 0, block 0
	MOVQ R10, R9
	SHRQ $6, R9              // 16-channel blocks: nPad/16

ablock:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ R14, R14            // qa byte offset

ak:
	VPMOVSXBW (DI), Y8
	VPMOVSXBW 16(DI), Y9
	VPBROADCASTD (AX)(R14*1), Y10
	VPMADDWD Y10, Y8, Y11
	VPMADDWD Y10, Y9, Y12
	VPADDD Y11, Y0, Y0
	VPADDD Y12, Y1, Y1
	VPBROADCASTD (BX)(R14*1), Y10
	VPMADDWD Y10, Y8, Y11
	VPMADDWD Y10, Y9, Y12
	VPADDD Y11, Y2, Y2
	VPADDD Y12, Y3, Y3
	VPBROADCASTD (R11)(R14*1), Y10
	VPMADDWD Y10, Y8, Y11
	VPMADDWD Y10, Y9, Y12
	VPADDD Y11, Y4, Y4
	VPADDD Y12, Y5, Y5
	VPBROADCASTD (R12)(R14*1), Y10
	VPMADDWD Y10, Y8, Y11
	VPMADDWD Y10, Y9, Y12
	VPADDD Y11, Y6, Y6
	VPADDD Y12, Y7, Y7
	ADDQ $32, DI
	ADDQ $4, R14
	CMPQ R14, R8
	JLT  ak
	VMOVDQU Y0, (SI)
	VMOVDQU Y1, 32(SI)
	MOVQ o1-8(SP), R14
	VMOVDQU Y2, (SI)(R14*1)
	VMOVDQU Y3, 32(SI)(R14*1)
	MOVQ o2-16(SP), R14
	VMOVDQU Y4, (SI)(R14*1)
	VMOVDQU Y5, 32(SI)(R14*1)
	MOVQ o3-24(SP), R14
	VMOVDQU Y6, (SI)(R14*1)
	VMOVDQU Y7, 32(SI)(R14*1)
	ADDQ $64, SI
	DECQ R9
	JNZ  ablock

	LEAQ (AX)(R8*4), AX      // next four qa rows
	LEAQ (DX)(R10*4), DX     // next four acc rows
	SUBQ $4, CX
	JG   agroup

adone:
	VZEROUPPER
	RET

// func int8TileVNNI(qa []int16, wt []int8, acc []int32, rows, kPad, nPad int)
//
// Same contract and layout as int8TileAVX2, fused onto AVX-512 VPDPWSSD:
// one instruction multiplies a k-pair across 16 channels by a row's
// broadcast activation pair and accumulates into the int32 lanes. Each
// weight k-quad is sign-extended once into Z8 (first pair) and Z9
// (second pair); row r accumulates the two phases in Z(2r) and Z(2r+1),
// eight independent chains, summed once per block.
TEXT ·int8TileVNNI(SB), NOSPLIT, $24-96
	MOVQ qa_base+0(FP), AX
	MOVQ wt_base+24(FP), R13
	MOVQ acc_base+48(FP), DX
	MOVQ rows+72(FP), CX
	MOVQ kPad+80(FP), R8
	MOVQ nPad+88(FP), R10
	SHLQ $1, R8
	SHLQ $2, R10
	TESTQ R8, R8
	JZ   vdone
	TESTQ R10, R10
	JZ   vdone
	TESTQ CX, CX
	JLE  vdone

vgroup:
	TILEROWS
	MOVQ R13, DI
	MOVQ DX, SI
	MOVQ R10, R9
	SHRQ $6, R9

vblock:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	XORQ R14, R14

vk:
	VPMOVSXBW (DI), Z8
	VPMOVSXBW 32(DI), Z9
	VPDPWSSD.BCST (AX)(R14*1), Z8, Z0
	VPDPWSSD.BCST 4(AX)(R14*1), Z9, Z1
	VPDPWSSD.BCST (BX)(R14*1), Z8, Z2
	VPDPWSSD.BCST 4(BX)(R14*1), Z9, Z3
	VPDPWSSD.BCST (R11)(R14*1), Z8, Z4
	VPDPWSSD.BCST 4(R11)(R14*1), Z9, Z5
	VPDPWSSD.BCST (R12)(R14*1), Z8, Z6
	VPDPWSSD.BCST 4(R12)(R14*1), Z9, Z7
	ADDQ $64, DI
	ADDQ $8, R14
	CMPQ R14, R8
	JLT  vk
	VPADDD Z1, Z0, Z0
	VPADDD Z3, Z2, Z2
	VPADDD Z5, Z4, Z4
	VPADDD Z7, Z6, Z6
	VMOVDQU32 Z0, (SI)
	MOVQ o1-8(SP), R14
	VMOVDQU32 Z2, (SI)(R14*1)
	MOVQ o2-16(SP), R14
	VMOVDQU32 Z4, (SI)(R14*1)
	MOVQ o3-24(SP), R14
	VMOVDQU32 Z6, (SI)(R14*1)
	ADDQ $64, SI
	DECQ R9
	JNZ  vblock

	LEAQ (AX)(R8*4), AX
	LEAQ (DX)(R10*4), DX
	SUBQ $4, CX
	JG   vgroup

vdone:
	VZEROUPPER
	RET

// 8-lane abs mask.
DATA cabs<>+0(SB)/4, $0x7FFFFFFF
DATA cabs<>+4(SB)/4, $0x7FFFFFFF
DATA cabs<>+8(SB)/4, $0x7FFFFFFF
DATA cabs<>+12(SB)/4, $0x7FFFFFFF
DATA cabs<>+16(SB)/4, $0x7FFFFFFF
DATA cabs<>+20(SB)/4, $0x7FFFFFFF
DATA cabs<>+24(SB)/4, $0x7FFFFFFF
DATA cabs<>+28(SB)/4, $0x7FFFFFFF
GLOBL cabs<>(SB), RODATA, $32

DATA c127<>+0(SB)/4, $0x42FE0000 // 127.0
GLOBL c127<>(SB), RODATA, $4

// func quantTileAsm(x []float32, k, kPad int, qa []int16, rowMax []float32)
//
// Per row of k floats: rowMax = max|x| (8-lane VMAXPS over k &^ 7, then
// the scalar tail), inv = 127/rowMax (0 for an all-zero row), then
// qa = round(x·inv) by VCVTPS2DQ/VPACKSSDW over k &^ 7 and VCVTSS2SI for
// the tail, both nearest-even under MXCSR, then qa[k:kPad] = 0.
TEXT ·quantTileAsm(SB), NOSPLIT, $0-88
	MOVQ x_base+0(FP), SI
	MOVQ k+24(FP), R8
	MOVQ kPad+32(FP), R9
	MOVQ qa_base+40(FP), DI
	MOVQ rowMax_base+64(FP), DX
	MOVQ rowMax_len+72(FP), CX
	VMOVUPS cabs<>(SB), Y7
	VMOVSS c127<>(SB), X6
	MOVQ R8, R11
	ANDQ $-8, R11            // k &^ 7
	TESTQ CX, CX
	JZ   qdone

qrow:
	VXORPS Y0, Y0, Y0
	XORQ BX, BX
	CMPQ BX, R11
	JGE  qmaxred

qmaxvec:
	VANDPS (SI)(BX*4), Y7, Y1
	VMAXPS Y1, Y0, Y0
	ADDQ $8, BX
	CMPQ BX, R11
	JLT  qmaxvec

qmaxred:
	VEXTRACTF128 $1, Y0, X1
	VMAXPS X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VMAXPS X1, X0, X0
	VPSHUFD $0xB1, X0, X1
	VMAXPS X1, X0, X0

qmaxtail:
	CMPQ BX, R8
	JGE  qscale
	VMOVSS (SI)(BX*4), X1
	VANDPS X7, X1, X1
	VMAXSS X1, X0, X0
	INCQ BX
	JMP  qmaxtail

qscale:
	VMOVSS X0, (DX)
	VXORPS X2, X2, X2
	VUCOMISS X2, X0
	JNE  qinv
	JPS  qinv
	JMP  qbcast              // all-zero row: inv = 0

qinv:
	VDIVSS X0, X6, X2        // 127 / rowMax

qbcast:
	VBROADCASTSS X2, Y2
	XORQ BX, BX
	CMPQ BX, R11
	JGE  qtail

qvec:
	VMULPS (SI)(BX*4), Y2, Y0
	VCVTPS2DQ Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPACKSSDW X1, X0, X0
	VMOVDQU X0, (DI)(BX*2)
	ADDQ $8, BX
	CMPQ BX, R11
	JLT  qvec

qtail:
	CMPQ BX, R8
	JGE  qpad
	VMULSS (SI)(BX*4), X2, X0
	VCVTSS2SI X0, AX
	MOVW AX, (DI)(BX*2)
	INCQ BX
	JMP  qtail

qpad:
	CMPQ BX, R9
	JGE  qnext
	MOVW $0, (DI)(BX*2)
	INCQ BX
	JMP  qpad

qnext:
	LEAQ (SI)(R8*4), SI
	LEAQ (DI)(R9*2), DI
	ADDQ $4, DX
	DECQ CX
	JNZ  qrow

qdone:
	VZEROUPPER
	RET

// func dequantTileAsm(acc []int32, nPad int, rowMax, scales, bias, out []float32)
//
// Per row of n = len(scales) outputs: out = float32(acc)·(rowMax/127)·
// scales (+ bias unless bias is empty), 8 lanes then a scalar tail, every
// product rounded before the add; a row with rowMax 0 gets a copy of bias
// (or zeros) instead. acc rows are nPad int32s apart, out rows n floats.
TEXT ·dequantTileAsm(SB), NOSPLIT, $0-128
	MOVQ acc_base+0(FP), SI
	MOVQ nPad+24(FP), R9
	SHLQ $2, R9              // acc row stride in bytes
	MOVQ rowMax_base+32(FP), DX
	MOVQ rowMax_len+40(FP), CX
	MOVQ scales_base+56(FP), R10
	MOVQ scales_len+64(FP), R8
	MOVQ bias_base+80(FP), R11
	MOVQ bias_len+88(FP), R12
	MOVQ out_base+104(FP), DI
	VMOVSS c127<>(SB), X6
	VXORPS Y7, Y7, Y7
	MOVQ R8, R13
	ANDQ $-8, R13            // n &^ 7
	TESTQ CX, CX
	JZ   ddone

drow:
	VMOVSS (DX), X0
	VUCOMISS X7, X0
	JNE  dscale
	JPS  dscale
	XORQ BX, BX
	TESTQ R12, R12
	JNZ  dcopyvec

dzerovec:                    // all-zero row, no bias: zeros
	CMPQ BX, R13
	JGE  dzerotail
	VMOVUPS Y7, (DI)(BX*4)
	ADDQ $8, BX
	JMP  dzerovec

dzerotail:
	CMPQ BX, R8
	JGE  dnext
	MOVL $0, (DI)(BX*4)
	INCQ BX
	JMP  dzerotail

dcopyvec:                    // all-zero row: the bias
	CMPQ BX, R13
	JGE  dcopytail
	VMOVUPS (R11)(BX*4), Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ $8, BX
	JMP  dcopyvec

dcopytail:
	CMPQ BX, R8
	JGE  dnext
	MOVL (R11)(BX*4), AX
	MOVL AX, (DI)(BX*4)
	INCQ BX
	JMP  dcopytail

dscale:
	VDIVSS X6, X0, X2        // rowMax / 127
	VBROADCASTSS X2, Y2
	XORQ BX, BX
	TESTQ R12, R12
	JZ   dnobvec

dbvec:
	CMPQ BX, R13
	JGE  dbtail
	VCVTDQ2PS (SI)(BX*4), Y0
	VMULPS Y2, Y0, Y0
	VMULPS (R10)(BX*4), Y0, Y0
	VADDPS (R11)(BX*4), Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ $8, BX
	JMP  dbvec

dbtail:
	CMPQ BX, R8
	JGE  dnext
	VCVTSI2SSL (SI)(BX*4), X7, X0
	VMULSS X2, X0, X0
	VMULSS (R10)(BX*4), X0, X0
	VADDSS (R11)(BX*4), X0, X0
	VMOVSS X0, (DI)(BX*4)
	INCQ BX
	JMP  dbtail

dnobvec:
	CMPQ BX, R13
	JGE  dnobtail
	VCVTDQ2PS (SI)(BX*4), Y0
	VMULPS Y2, Y0, Y0
	VMULPS (R10)(BX*4), Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ $8, BX
	JMP  dnobvec

dnobtail:
	CMPQ BX, R8
	JGE  dnext
	VCVTSI2SSL (SI)(BX*4), X7, X0
	VMULSS X2, X0, X0
	VMULSS (R10)(BX*4), X0, X0
	VMOVSS X0, (DI)(BX*4)
	INCQ BX
	JMP  dnobtail

dnext:
	ADDQ R9, SI
	LEAQ (DI)(R8*4), DI
	ADDQ $4, DX
	DECQ CX
	JNZ  drow

ddone:
	VZEROUPPER
	RET

// func expShiftAsm(v []float32, shift float32)
//
// v[i] = exp(v[i] - shift), 8 lanes per iteration; len(v) must be a
// multiple of 8 (the Go wrapper owns the tail).
TEXT ·expShiftAsm(SB), NOSPLIT, $0-28
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), R8
	TESTQ R8, R8
	JZ   edone
	EXPSETUP
	VBROADCASTSS shift+24(FP), Y6
	SHRQ $3, R8

eloop:
	VMOVUPS (SI), Y0
	VSUBPS Y6, Y0, Y0
	EXPCORE
	VMOVUPS Y0, (SI)
	ADDQ $32, SI
	DECQ R8
	JNZ  eloop

edone:
	VZEROUPPER
	RET

// func gelu32Asm(v []float32)
//
// v[i] = 0.5·v·(1 + tanh(√(2/π)·(v + 0.044715·v³))) with
// tanh(u) = 1 − 2/(e^{2u}+1); len(v) must be a multiple of 8.
TEXT ·gelu32Asm(SB), NOSPLIT, $0-24
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), R8
	TESTQ R8, R8
	JZ   gdone
	EXPSETUP
	VBROADCASTSS ctwo<>(SB), Y14
	VBROADCASTSS cgeluc<>(SB), Y15
	VBROADCASTSS cgelua<>(SB), Y7
	SHRQ $3, R8

gloop:
	VMOVUPS (SI), Y5             // v
	VMULPS Y5, Y5, Y0            // v²
	VMULPS Y5, Y0, Y0            // v³
	VMULPS Y7, Y0, Y0            // a·v³
	VADDPS Y5, Y0, Y0            // v + a·v³
	VMULPS Y15, Y0, Y0           // u
	VADDPS Y0, Y0, Y0            // 2u
	EXPCORE                      // e^{2u}
	VADDPS Y12, Y0, Y0           // e+1
	VDIVPS Y0, Y14, Y1           // 2/(e+1)
	VSUBPS Y1, Y12, Y1           // tanh(u)
	VADDPS Y12, Y1, Y1           // 1+tanh
	VMULPS Y13, Y1, Y1           // ·0.5
	VMULPS Y5, Y1, Y1            // ·v
	VMOVUPS Y1, (SI)
	ADDQ $32, SI
	DECQ R8
	JNZ  gloop

gdone:
	VZEROUPPER
	RET

// 8-lane int32 lane indices, compared against a live-lane count to build
// the attention kernel's pad mask.
DATA ciota<>+0(SB)/4, $0
DATA ciota<>+4(SB)/4, $1
DATA ciota<>+8(SB)/4, $2
DATA ciota<>+12(SB)/4, $3
DATA ciota<>+16(SB)/4, $4
DATA ciota<>+20(SB)/4, $5
DATA ciota<>+24(SB)/4, $6
DATA ciota<>+28(SB)/4, $7
GLOBL ciota<>(SB), RODATA, $32

DATA cneginf<>+0(SB)/4, $0xFF800000 // -Inf
GLOBL cneginf<>(SB), RODATA, $4

// HSUM8: X0's low lane = the sum of Y0's eight lanes in the fixed order
// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) that hsum8 mirrors. Clobbers X1.
#define HSUM8 \
	VEXTRACTF128 $1, Y0, X1 \
	VADDPS X1, X0, X0       \
	VMOVHLPS X0, X0, X1     \
	VADDPS X1, X0, X0       \
	VMOVSHDUP X0, X1        \
	VADDSS X1, X0, X0

// func addLayerNormRowAsm(x, resid, gamma, beta []float32, eps float32, out []float32)
//
// Bitwise mirror of addLayerNormRowGo: x[i] += resid[i] when resid is
// non-empty, then out[i] = ((x[i]-mean)·is)·gamma[i] + beta[i] with
// is = 1/√(var+eps). The mean and variance sums put element i in lane
// i mod 8 and reduce with HSUM8; every multiply and add rounds on its own
// (no FMA). len(x) must be a positive multiple of 4, the other slices at
// least as long; out may alias x.
TEXT ·addLayerNormRowAsm(SB), NOSPLIT, $0-128
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), R8
	MOVQ resid_base+24(FP), R11
	MOVQ resid_len+32(FP), R9
	MOVQ gamma_base+48(FP), R10
	MOVQ beta_base+72(FP), R12
	MOVQ out_base+104(FP), DI
	MOVQ R8, R13
	ANDQ $-8, R13            // end of the whole 8-lane blocks
	VXORPS Y0, Y0, Y0
	XORQ AX, AX
	TESTQ R9, R9
	JZ   sum8

radd8:
	CMPQ AX, R13
	JGE  radd4
	VMOVUPS (SI)(AX*4), Y1
	VADDPS (R11)(AX*4), Y1, Y1
	VMOVUPS Y1, (SI)(AX*4)
	VADDPS Y1, Y0, Y0
	ADDQ $8, AX
	JMP  radd8

radd4:
	CMPQ AX, R8
	JGE  mean
	VMOVUPS (SI)(AX*4), X1
	VADDPS (R11)(AX*4), X1, X1
	VMOVUPS X1, (SI)(AX*4)
	VADDPS Y1, Y0, Y0        // lanes 4-7 of Y1 are zero
	JMP  mean

sum8:
	CMPQ AX, R13
	JGE  sum4
	VADDPS (SI)(AX*4), Y0, Y0
	ADDQ $8, AX
	JMP  sum8

sum4:
	CMPQ AX, R8
	JGE  mean
	VMOVUPS (SI)(AX*4), X1
	VADDPS Y1, Y0, Y0

mean:
	HSUM8
	VCVTSI2SSQ R8, X2, X2    // float32(n)
	VDIVSS X2, X0, X0
	VBROADCASTSS X0, Y14     // mean
	VXORPS Y0, Y0, Y0
	XORQ AX, AX

var8:
	CMPQ AX, R13
	JGE  var4
	VMOVUPS (SI)(AX*4), Y1
	VSUBPS Y14, Y1, Y1
	VMULPS Y1, Y1, Y1
	VADDPS Y1, Y0, Y0
	ADDQ $8, AX
	JMP  var8

var4:
	CMPQ AX, R8
	JGE  norm
	VMOVUPS (SI)(AX*4), X1
	VSUBPS X14, X1, X1
	VMULPS X1, X1, X1
	VADDPS Y1, Y0, Y0

norm:
	HSUM8
	VDIVSS X2, X0, X0        // variance
	VADDSS eps+96(FP), X0, X0
	VSQRTSS X0, X0, X0
	VMOVSS cone<>(SB), X3
	VDIVSS X0, X3, X0        // is = 1/√(var+eps)
	VBROADCASTSS X0, Y13
	XORQ AX, AX

out8:
	CMPQ AX, R13
	JGE  out4
	VMOVUPS (SI)(AX*4), Y1
	VSUBPS Y14, Y1, Y1
	VMULPS Y13, Y1, Y1
	VMULPS (R10)(AX*4), Y1, Y1
	VADDPS (R12)(AX*4), Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ $8, AX
	JMP  out8

out4:
	CMPQ AX, R8
	JGE  lndone
	VMOVUPS (SI)(AX*4), X1
	VSUBPS X14, X1, X1
	VMULPS X13, X1, X1
	VMULPS (R10)(AX*4), X1, X1
	VADDPS (R12)(AX*4), X1, X1
	VMOVUPS X1, (DI)(AX*4)

lndone:
	VZEROUPPER
	RET

// func attnRowAsm(q, kt, v, scores, out []float32, scale float32, vStride, S int)
//
// One query row of one head, bitwise mirror of attnRowGo. With d = len(q)
// (a multiple of 4) and Sp = len(scores) (S rounded up to 8):
//
//	scores[j] = scale·Σ_c q[c]·kt[c·Sp+j]      for all Sp lanes
//	e_j       = exp(scores[j] - max_{j<S} scores[j])  (EXPCORE, all lanes)
//	out[c]    = (Σ_{j<S} e_j·v[j·vStride+c]) · (1/Σ_{j<S} e_j)
//
// Both dot products accumulate from zero in ascending order with separate
// multiplies and adds; the exp sum puts lane j in lane j mod 8 and reduces
// with HSUM8. Pad lanes j ≥ S are masked out of the max and the sum, and AV
// never reads them.
TEXT ·attnRowAsm(SB), NOSPLIT, $0-144
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), R8     // d
	MOVQ kt_base+24(FP), DI
	MOVQ v_base+48(FP), BX
	MOVQ scores_base+72(FP), DX
	MOVQ scores_len+80(FP), R9 // Sp
	MOVQ out_base+96(FP), CX
	VBROADCASTSS scale+120(FP), Y15
	MOVQ vStride+128(FP), R14
	SHLQ $2, R14             // v row stride in bytes
	MOVQ R9, R13
	SHLQ $2, R13             // kt row stride in bytes
	XORQ R10, R10            // j0

	// QKᵀ in strips of 32 lanes, then one strip of 24, 16 or 8.
qk32:
	MOVQ R9, AX
	SUBQ R10, AX
	CMPQ AX, $32
	JLT  qk24
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	LEAQ (DI)(R10*4), R11
	XORQ R12, R12

qk32loop:
	VBROADCASTSS (SI)(R12*4), Y4
	VMULPS (R11), Y4, Y5
	VMULPS 32(R11), Y4, Y6
	VMULPS 64(R11), Y4, Y7
	VMULPS 96(R11), Y4, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3
	ADDQ R13, R11
	INCQ R12
	CMPQ R12, R8
	JLT  qk32loop
	LEAQ (DX)(R10*4), R11
	VMULPS Y15, Y0, Y0
	VMULPS Y15, Y1, Y1
	VMULPS Y15, Y2, Y2
	VMULPS Y15, Y3, Y3
	VMOVUPS Y0, (R11)
	VMOVUPS Y1, 32(R11)
	VMOVUPS Y2, 64(R11)
	VMOVUPS Y3, 96(R11)
	ADDQ $32, R10
	JMP  qk32

qk24:
	CMPQ AX, $24
	JNE  qk16
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	LEAQ (DI)(R10*4), R11
	XORQ R12, R12

qk24loop:
	VBROADCASTSS (SI)(R12*4), Y4
	VMULPS (R11), Y4, Y5
	VMULPS 32(R11), Y4, Y6
	VMULPS 64(R11), Y4, Y7
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	ADDQ R13, R11
	INCQ R12
	CMPQ R12, R8
	JLT  qk24loop
	LEAQ (DX)(R10*4), R11
	VMULPS Y15, Y0, Y0
	VMULPS Y15, Y1, Y1
	VMULPS Y15, Y2, Y2
	VMOVUPS Y0, (R11)
	VMOVUPS Y1, 32(R11)
	VMOVUPS Y2, 64(R11)
	JMP  softmax

qk16:
	CMPQ AX, $16
	JNE  qk8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	LEAQ (DI)(R10*4), R11
	XORQ R12, R12

qk16loop:
	VBROADCASTSS (SI)(R12*4), Y4
	VMULPS (R11), Y4, Y5
	VMULPS 32(R11), Y4, Y6
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	ADDQ R13, R11
	INCQ R12
	CMPQ R12, R8
	JLT  qk16loop
	LEAQ (DX)(R10*4), R11
	VMULPS Y15, Y0, Y0
	VMULPS Y15, Y1, Y1
	VMOVUPS Y0, (R11)
	VMOVUPS Y1, 32(R11)
	JMP  softmax

qk8:
	CMPQ AX, $8
	JNE  softmax
	VXORPS Y0, Y0, Y0
	LEAQ (DI)(R10*4), R11
	XORQ R12, R12

qk8loop:
	VBROADCASTSS (SI)(R12*4), Y4
	VMULPS (R11), Y4, Y5
	VADDPS Y5, Y0, Y0
	ADDQ R13, R11
	INCQ R12
	CMPQ R12, R8
	JLT  qk8loop
	VMULPS Y15, Y0, Y0
	VMOVUPS Y0, (DX)(R10*4)

softmax:
	// Y7 = live-lane mask of the last block (lane l < S - (Sp-8)).
	MOVQ S+136(FP), AX
	SUBQ R9, AX
	ADDQ $8, AX
	VMOVD AX, X7
	VPBROADCASTD X7, Y7
	VPCMPGTD ciota<>(SB), Y7, Y7
	VBROADCASTSS cneginf<>(SB), Y5
	VMOVAPS Y5, Y4
	MOVQ R9, R12
	SUBQ $8, R12             // first lane of the last block
	XORQ AX, AX

max8:
	CMPQ AX, R12
	JGE  maxlast
	VMAXPS (DX)(AX*4), Y4, Y4
	ADDQ $8, AX
	JMP  max8

maxlast:
	VMOVUPS (DX)(AX*4), Y6
	VBLENDVPS Y7, Y6, Y5, Y6 // pad lanes → -Inf
	VMAXPS Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VMAXPS X5, X4, X4
	VPSHUFD $0x4E, X4, X5
	VMAXPS X5, X4, X4
	VPSHUFD $0xB1, X4, X5
	VMAXPS X5, X4, X4
	VBROADCASTSS X4, Y4      // max over the live lanes
	EXPSETUP
	VXORPS Y14, Y14, Y14
	XORQ AX, AX

exp8:
	VMOVUPS (DX)(AX*4), Y0
	VSUBPS Y4, Y0, Y0
	EXPCORE
	VMOVUPS Y0, (DX)(AX*4)
	CMPQ AX, R12
	JGE  explast
	VADDPS Y0, Y14, Y14
	ADDQ $8, AX
	JMP  exp8

explast:
	VANDPS Y7, Y0, Y0
	VADDPS Y0, Y14, Y14
	VMOVAPS Y14, Y0
	HSUM8
	VDIVSS X0, X12, X0       // 1/Σe (X12 holds 1.0)
	VBROADCASTSS X0, Y15

	// AV in strips of 32 columns, then 16, then one of 12, 8 or 4.
	MOVQ S+136(FP), R9
	XORQ R10, R10            // c0

av32:
	MOVQ R8, AX
	SUBQ R10, AX
	CMPQ AX, $32
	JLT  av16
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	LEAQ (BX)(R10*4), R11
	XORQ R12, R12

av32loop:
	VBROADCASTSS (DX)(R12*4), Y4
	VMULPS (R11), Y4, Y5
	VMULPS 32(R11), Y4, Y6
	VMULPS 64(R11), Y4, Y7
	VMULPS 96(R11), Y4, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3
	ADDQ R14, R11
	INCQ R12
	CMPQ R12, R9
	JLT  av32loop
	LEAQ (CX)(R10*4), R11
	VMULPS Y15, Y0, Y0
	VMULPS Y15, Y1, Y1
	VMULPS Y15, Y2, Y2
	VMULPS Y15, Y3, Y3
	VMOVUPS Y0, (R11)
	VMOVUPS Y1, 32(R11)
	VMOVUPS Y2, 64(R11)
	VMOVUPS Y3, 96(R11)
	ADDQ $32, R10
	JMP  av32

av16:
	CMPQ AX, $16
	JLT  av12
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	LEAQ (BX)(R10*4), R11
	XORQ R12, R12

av16loop:
	VBROADCASTSS (DX)(R12*4), Y4
	VMULPS (R11), Y4, Y5
	VMULPS 32(R11), Y4, Y6
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	ADDQ R14, R11
	INCQ R12
	CMPQ R12, R9
	JLT  av16loop
	LEAQ (CX)(R10*4), R11
	VMULPS Y15, Y0, Y0
	VMULPS Y15, Y1, Y1
	VMOVUPS Y0, (R11)
	VMOVUPS Y1, 32(R11)
	ADDQ $16, R10
	SUBQ $16, AX

av12:
	CMPQ AX, $12
	JNE  av8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	LEAQ (BX)(R10*4), R11
	XORQ R12, R12

av12loop:
	VBROADCASTSS (DX)(R12*4), Y4
	VMULPS (R11), Y4, Y5
	VMULPS 32(R11), X4, X6
	VADDPS Y5, Y0, Y0
	VADDPS X6, X1, X1
	ADDQ R14, R11
	INCQ R12
	CMPQ R12, R9
	JLT  av12loop
	LEAQ (CX)(R10*4), R11
	VMULPS Y15, Y0, Y0
	VMULPS X15, X1, X1
	VMOVUPS Y0, (R11)
	VMOVUPS X1, 32(R11)
	JMP  avdone

av8:
	CMPQ AX, $8
	JNE  av4
	VXORPS Y0, Y0, Y0
	LEAQ (BX)(R10*4), R11
	XORQ R12, R12

av8loop:
	VBROADCASTSS (DX)(R12*4), Y4
	VMULPS (R11), Y4, Y5
	VADDPS Y5, Y0, Y0
	ADDQ R14, R11
	INCQ R12
	CMPQ R12, R9
	JLT  av8loop
	VMULPS Y15, Y0, Y0
	VMOVUPS Y0, (CX)(R10*4)
	JMP  avdone

av4:
	CMPQ AX, $4
	JNE  avdone
	VXORPS X0, X0, X0
	LEAQ (BX)(R10*4), R11
	XORQ R12, R12

av4loop:
	VBROADCASTSS (DX)(R12*4), X4
	VMULPS (R11), X4, X5
	VADDPS X5, X0, X0
	ADDQ R14, R11
	INCQ R12
	CMPQ R12, R9
	JLT  av4loop
	VMULPS X15, X0, X0
	VMOVUPS X0, (CX)(R10*4)

avdone:
	VZEROUPPER
	RET

// Lane masks for 0–4 live float64 lanes: entry r (at byte 32·r) enables
// lanes 0..r-1.
DATA f64mask<>+0(SB)/8, $0
DATA f64mask<>+8(SB)/8, $0
DATA f64mask<>+16(SB)/8, $0
DATA f64mask<>+24(SB)/8, $0
DATA f64mask<>+32(SB)/8, $-1
DATA f64mask<>+40(SB)/8, $0
DATA f64mask<>+48(SB)/8, $0
DATA f64mask<>+56(SB)/8, $0
DATA f64mask<>+64(SB)/8, $-1
DATA f64mask<>+72(SB)/8, $-1
DATA f64mask<>+80(SB)/8, $0
DATA f64mask<>+88(SB)/8, $0
DATA f64mask<>+96(SB)/8, $-1
DATA f64mask<>+104(SB)/8, $-1
DATA f64mask<>+112(SB)/8, $-1
DATA f64mask<>+120(SB)/8, $0
DATA f64mask<>+128(SB)/8, $-1
DATA f64mask<>+136(SB)/8, $-1
DATA f64mask<>+144(SB)/8, $-1
DATA f64mask<>+152(SB)/8, $-1
GLOBL f64mask<>(SB), RODATA, $160

// GEMMROW r, lo, hi accumulates the broadcast a[r][k] (row pointer r,
// k byte offset R14) times the b strip in Y8/Y9 into lo/hi: the product
// rounds (VMULPD) before it is added (VADDPD), never fused.
#define GEMMROW(r, lo, hi) \
	VBROADCASTSD (r)(R14*1), Y10 \
	VMULPD       Y8, Y10, Y11    \
	VMULPD       Y9, Y10, Y12    \
	VADDPD       Y11, lo, lo     \
	VADDPD       Y12, hi, hi

// GEMMROW4 is GEMMROW for the masked ≤4-column strip in Y8.
#define GEMMROW4(r, acc) \
	VBROADCASTSD (r)(R14*1), Y10 \
	VMULPD       Y8, Y10, Y11    \
	VADDPD       Y11, acc, acc

// func gemmF64Asm(a, b, bias, out []float64, rows, k, n, lda, ldb, ldo int)
//
// out[i][j] = (Σ_k a[i][k]·b[k][j]) + bias[j] for i < rows, j < n, with
// row strides lda, ldb and ldo in elements; bias may be nil. Four rows at a
// time (the last group of 1–3 repeats its last row in the missing slots,
// which only rewrites that row's own values): an 8-column strip keeps
// the four rows in Y0–Y7 (row r in Y(2r), Y(2r+1)); the last 1–7 columns
// run in masked strips of up to 4 (Y0, Y2, Y4, Y6; mask in Y15). Every
// accumulator starts at +0 and adds k ascending over the whole of k, and
// the bias is added once at the store: the Go loop's order, per element.
TEXT ·gemmF64Asm(SB), NOSPLIT, $32-144
	MOVQ a_base+0(FP), AX
	MOVQ out_base+72(FP), DX
	MOVQ rows+96(FP), CX
	MOVQ k+104(FP), R8
	MOVQ n+112(FP), R9
	MOVQ ldb+128(FP), R13
	MOVQ ldo+136(FP), R10
	SHLQ $3, R8              // k bound in bytes
	SHLQ $3, R9
	MOVQ R9, nb-32(SP)       // column bound in bytes
	SHLQ $3, R13             // b row stride in bytes
	SHLQ $3, R10             // out row stride in bytes
	TESTQ R9, R9
	JZ   gdone
	TESTQ CX, CX
	JLE  gdone

ggroup:
	// a rows 1–3 in BX, R11, R12 and out row offsets 1–3 in o1–o3,
	// repeating the last row when fewer than four are left.
	MOVQ    lda+120(FP), R9
	SHLQ    $3, R9
	LEAQ    (AX)(R9*1), BX
	CMPQ    CX, $1
	CMOVQLE AX, BX
	LEAQ    (BX)(R9*1), R11
	CMPQ    CX, $2
	CMOVQLE BX, R11
	LEAQ    (R11)(R9*1), R12
	CMPQ    CX, $3
	CMOVQLE R11, R12
	XORQ    R14, R14
	CMPQ    CX, $1
	CMOVQGT R10, R14
	MOVQ    R14, o1-8(SP)
	LEAQ    (R14)(R10*1), R9
	CMPQ    CX, $2
	CMOVQLE R14, R9
	MOVQ    R9, o2-16(SP)
	LEAQ    (R9)(R10*1), R14
	CMPQ    CX, $3
	CMOVQLE R9, R14
	MOVQ    R14, o3-24(SP)
	XORQ    R9, R9           // column byte offset

gstrip8:
	LEAQ 64(R9), DI
	CMPQ DI, nb-32(SP)
	JGT  gtail
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ  b_base+24(FP), DI
	ADDQ  R9, DI             // b[0][j]
	XORQ  R14, R14
	TESTQ R8, R8
	JZ    gstore8

gk8:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	GEMMROW(AX, Y0, Y1)
	GEMMROW(BX, Y2, Y3)
	GEMMROW(R11, Y4, Y5)
	GEMMROW(R12, Y6, Y7)
	ADDQ R13, DI
	ADDQ $8, R14
	CMPQ R14, R8
	JLT  gk8

gstore8:
	MOVQ  bias_base+48(FP), DI
	TESTQ DI, DI
	JZ    gput8
	VMOVUPD (DI)(R9*1), Y8
	VMOVUPD 32(DI)(R9*1), Y9
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VADDPD  Y8, Y2, Y2
	VADDPD  Y9, Y3, Y3
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VADDPD  Y8, Y6, Y6
	VADDPD  Y9, Y7, Y7

gput8:
	LEAQ    (DX)(R9*1), SI
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	MOVQ    o1-8(SP), DI
	VMOVUPD Y2, (SI)(DI*1)
	VMOVUPD Y3, 32(SI)(DI*1)
	MOVQ    o2-16(SP), DI
	VMOVUPD Y4, (SI)(DI*1)
	VMOVUPD Y5, 32(SI)(DI*1)
	MOVQ    o3-24(SP), DI
	VMOVUPD Y6, (SI)(DI*1)
	VMOVUPD Y7, 32(SI)(DI*1)
	ADDQ    $64, R9
	JMP     gstrip8

gtail:
	// Strips of min(4, columns left) lanes under the mask in Y15.
	MOVQ    nb-32(SP), DI
	SUBQ    R9, DI
	JLE     gnext
	MOVQ    $32, SI
	CMPQ    DI, SI
	CMOVQGT SI, DI
	LEAQ    f64mask<>(SB), SI
	VMOVUPD (SI)(DI*4), Y15
	VXORPD  Y0, Y0, Y0
	VXORPD  Y2, Y2, Y2
	VXORPD  Y4, Y4, Y4
	VXORPD  Y6, Y6, Y6
	MOVQ    b_base+24(FP), DI
	ADDQ    R9, DI
	XORQ    R14, R14
	TESTQ   R8, R8
	JZ      gstore4

gk4:
	VMASKMOVPD (DI), Y15, Y8
	GEMMROW4(AX, Y0)
	GEMMROW4(BX, Y2)
	GEMMROW4(R11, Y4)
	GEMMROW4(R12, Y6)
	ADDQ R13, DI
	ADDQ $8, R14
	CMPQ R14, R8
	JLT  gk4

gstore4:
	MOVQ  bias_base+48(FP), DI
	TESTQ DI, DI
	JZ    gput4
	ADDQ  R9, DI
	VMASKMOVPD (DI), Y15, Y8
	VADDPD Y8, Y0, Y0
	VADDPD Y8, Y2, Y2
	VADDPD Y8, Y4, Y4
	VADDPD Y8, Y6, Y6

gput4:
	LEAQ       (DX)(R9*1), SI
	VMASKMOVPD Y0, Y15, (SI)
	MOVQ       o1-8(SP), DI
	ADDQ       SI, DI
	VMASKMOVPD Y2, Y15, (DI)
	MOVQ       o2-16(SP), DI
	ADDQ       SI, DI
	VMASKMOVPD Y4, Y15, (DI)
	MOVQ       o3-24(SP), DI
	ADDQ       SI, DI
	VMASKMOVPD Y6, Y15, (DI)
	ADDQ       $32, R9
	JMP        gtail

gnext:
	MOVQ lda+120(FP), R9
	SHLQ $5, R9              // four a rows in bytes
	ADDQ R9, AX
	LEAQ (DX)(R10*4), DX     // four out rows
	SUBQ $4, CX
	JG   ggroup

gdone:
	VZEROUPPER
	RET

// LANEMASK loads into m the mask of min(4, max(0, left/8)) lanes, for
// left bytes of the row still to go (BX and R14 are clobbered).
#define LANEMASK(left, m) \
	MOVQ    left, BX       \
	XORQ    R14, R14       \
	CMPQ    BX, R14        \
	CMOVQLT R14, BX        \
	MOVQ    $32, R14       \
	CMPQ    BX, R14        \
	CMOVQGT R14, BX        \
	VMOVUPD (R13)(BX*4), m

// AVSTRIP multiplies the broadcast weight in Y4 by the masked v strip at
// off(DX) and adds the product into acc.
#define AVSTRIP(off, m, acc) \
	VMASKMOVPD off(DX), m, Y5 \
	VMULPD     Y5, Y4, Y5     \
	VADDPD     Y5, acc, acc

// func attnAVF64Asm(a, v, out []float64, S, d, stride int)
//
// AV for one head: out[i·stride+c] = Σ_j a[i·S+j]·v[j·stride+c] for i < S
// and c < d, j ascending from +0, skipping every j whose weight is ±0 as
// the scalar loop does (0·Inf and 0·NaN would otherwise turn a sum into
// NaN). One pass over j per row covers 16 columns in four masked strips
// (Y0–Y3, masks Y12–Y15; a strip past d has an empty mask and is never
// stored).
TEXT ·attnAVF64Asm(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ out_base+48(FP), DI
	MOVQ S+72(FP), CX
	MOVQ d+80(FP), R10
	MOVQ stride+88(FP), R9
	SHLQ $3, R10             // row width in bytes
	SHLQ $3, R9              // v and out row stride in bytes
	LEAQ f64mask<>(SB), R13
	TESTQ CX, CX
	JLE  avdone
	TESTQ R10, R10
	JLE  avdone
	MOVQ CX, R12             // rows left

avrow:
	XORQ R11, R11            // column byte offset of the pass

avpass:
	MOVQ R10, AX
	SUBQ R11, AX             // bytes left in the row
	LANEMASK(AX, Y12)
	SUBQ $32, AX
	LANEMASK(AX, Y13)
	SUBQ $32, AX
	LANEMASK(AX, Y14)
	SUBQ $32, AX
	LANEMASK(AX, Y15)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ v_base+24(FP), DX
	ADDQ R11, DX             // v[0][c]
	XORQ R8, R8

avj:
	MOVQ (SI)(R8*8), AX
	SHLQ $1, AX              // drop the sign: ±0 becomes 0
	JZ   avskip
	VBROADCASTSD (SI)(R8*8), Y4
	AVSTRIP(0, Y12, Y0)
	AVSTRIP(32, Y13, Y1)
	AVSTRIP(64, Y14, Y2)
	AVSTRIP(96, Y15, Y3)

avskip:
	ADDQ R9, DX
	INCQ R8
	CMPQ R8, CX
	JLT  avj
	LEAQ (DI)(R11*1), AX
	VMASKMOVPD Y0, Y12, (AX)
	VMASKMOVPD Y1, Y13, 32(AX)
	VMASKMOVPD Y2, Y14, 64(AX)
	VMASKMOVPD Y3, Y15, 96(AX)
	ADDQ $128, R11
	CMPQ R11, R10
	JLT  avpass
	LEAQ (SI)(CX*8), SI      // next row of a
	ADDQ R9, DI              // next out row
	DECQ R12
	JNZ  avrow

avdone:
	VZEROUPPER
	RET

// 4-lane float64 constants for expF64 and tanhF64 (exp.go).
DATA f64half<>+0(SB)/8, $0x3FE0000000000000 // 0.5
DATA f64half<>+8(SB)/8, $0x3FE0000000000000
DATA f64half<>+16(SB)/8, $0x3FE0000000000000
DATA f64half<>+24(SB)/8, $0x3FE0000000000000
GLOBL f64half<>(SB), RODATA, $32

DATA f64one<>+0(SB)/8, $0x3FF0000000000000 // 1
DATA f64one<>+8(SB)/8, $0x3FF0000000000000
DATA f64one<>+16(SB)/8, $0x3FF0000000000000
DATA f64one<>+24(SB)/8, $0x3FF0000000000000
GLOBL f64one<>(SB), RODATA, $32

DATA f64two<>+0(SB)/8, $0x4000000000000000 // 2
DATA f64two<>+8(SB)/8, $0x4000000000000000
DATA f64two<>+16(SB)/8, $0x4000000000000000
DATA f64two<>+24(SB)/8, $0x4000000000000000
GLOBL f64two<>(SB), RODATA, $32

DATA f64log2e<>+0(SB)/8, $0x3FF71547652B82FE // Log2e
DATA f64log2e<>+8(SB)/8, $0x3FF71547652B82FE
DATA f64log2e<>+16(SB)/8, $0x3FF71547652B82FE
DATA f64log2e<>+24(SB)/8, $0x3FF71547652B82FE
GLOBL f64log2e<>(SB), RODATA, $32

DATA f64ln2hi<>+0(SB)/8, $0x3FE62E42FEE00000 // Ln2Hi
DATA f64ln2hi<>+8(SB)/8, $0x3FE62E42FEE00000
DATA f64ln2hi<>+16(SB)/8, $0x3FE62E42FEE00000
DATA f64ln2hi<>+24(SB)/8, $0x3FE62E42FEE00000
GLOBL f64ln2hi<>(SB), RODATA, $32

DATA f64ln2lo<>+0(SB)/8, $0x3DEA39EF35793C76 // Ln2Lo
DATA f64ln2lo<>+8(SB)/8, $0x3DEA39EF35793C76
DATA f64ln2lo<>+16(SB)/8, $0x3DEA39EF35793C76
DATA f64ln2lo<>+24(SB)/8, $0x3DEA39EF35793C76
GLOBL f64ln2lo<>(SB), RODATA, $32

DATA f64p1<>+0(SB)/8, $0x3FC5555555555555 // P1
DATA f64p1<>+8(SB)/8, $0x3FC5555555555555
DATA f64p1<>+16(SB)/8, $0x3FC5555555555555
DATA f64p1<>+24(SB)/8, $0x3FC5555555555555
GLOBL f64p1<>(SB), RODATA, $32

DATA f64p2<>+0(SB)/8, $0xBF66C16C16BEBD93 // P2
DATA f64p2<>+8(SB)/8, $0xBF66C16C16BEBD93
DATA f64p2<>+16(SB)/8, $0xBF66C16C16BEBD93
DATA f64p2<>+24(SB)/8, $0xBF66C16C16BEBD93
GLOBL f64p2<>(SB), RODATA, $32

DATA f64p3<>+0(SB)/8, $0x3F11566AAF25DE2C // P3
DATA f64p3<>+8(SB)/8, $0x3F11566AAF25DE2C
DATA f64p3<>+16(SB)/8, $0x3F11566AAF25DE2C
DATA f64p3<>+24(SB)/8, $0x3F11566AAF25DE2C
GLOBL f64p3<>(SB), RODATA, $32

DATA f64p4<>+0(SB)/8, $0xBEBBBD41C5D26BF1 // P4
DATA f64p4<>+8(SB)/8, $0xBEBBBD41C5D26BF1
DATA f64p4<>+16(SB)/8, $0xBEBBBD41C5D26BF1
DATA f64p4<>+24(SB)/8, $0xBEBBBD41C5D26BF1
GLOBL f64p4<>(SB), RODATA, $32

DATA f64p5<>+0(SB)/8, $0x3E66376972BEA4D0 // P5
DATA f64p5<>+8(SB)/8, $0x3E66376972BEA4D0
DATA f64p5<>+16(SB)/8, $0x3E66376972BEA4D0
DATA f64p5<>+24(SB)/8, $0x3E66376972BEA4D0
GLOBL f64p5<>(SB), RODATA, $32

DATA f64nearzero<>+0(SB)/8, $0x3E30000000000000 // 2⁻²⁸
DATA f64nearzero<>+8(SB)/8, $0x3E30000000000000
DATA f64nearzero<>+16(SB)/8, $0x3E30000000000000
DATA f64nearzero<>+24(SB)/8, $0x3E30000000000000
GLOBL f64nearzero<>(SB), RODATA, $32

DATA f64explo<>+0(SB)/8, $0xC086200000000000 // -708
DATA f64explo<>+8(SB)/8, $0xC086200000000000
DATA f64explo<>+16(SB)/8, $0xC086200000000000
DATA f64explo<>+24(SB)/8, $0xC086200000000000
GLOBL f64explo<>(SB), RODATA, $32

DATA f64exphi<>+0(SB)/8, $0x4086280000000000 // 709
DATA f64exphi<>+8(SB)/8, $0x4086280000000000
DATA f64exphi<>+16(SB)/8, $0x4086280000000000
DATA f64exphi<>+24(SB)/8, $0x4086280000000000
GLOBL f64exphi<>(SB), RODATA, $32

DATA f64gelua<>+0(SB)/8, $0x3FA6E4E26D4801F7 // 0.044715
DATA f64gelua<>+8(SB)/8, $0x3FA6E4E26D4801F7
DATA f64gelua<>+16(SB)/8, $0x3FA6E4E26D4801F7
DATA f64gelua<>+24(SB)/8, $0x3FA6E4E26D4801F7
GLOBL f64gelua<>(SB), RODATA, $32

DATA f64geluc<>+0(SB)/8, $0x3FE9884533D43651 // √(2/π)
DATA f64geluc<>+8(SB)/8, $0x3FE9884533D43651
DATA f64geluc<>+16(SB)/8, $0x3FE9884533D43651
DATA f64geluc<>+24(SB)/8, $0x3FE9884533D43651
GLOBL f64geluc<>(SB), RODATA, $32

DATA f64tanhsat<>+0(SB)/8, $0x404601E678FC457B // MAXLOG/2
DATA f64tanhsat<>+8(SB)/8, $0x404601E678FC457B
DATA f64tanhsat<>+16(SB)/8, $0x404601E678FC457B
DATA f64tanhsat<>+24(SB)/8, $0x404601E678FC457B
GLOBL f64tanhsat<>(SB), RODATA, $32

DATA f64tanhexp<>+0(SB)/8, $0x3FE4000000000000 // 0.625
DATA f64tanhexp<>+8(SB)/8, $0x3FE4000000000000
DATA f64tanhexp<>+16(SB)/8, $0x3FE4000000000000
DATA f64tanhexp<>+24(SB)/8, $0x3FE4000000000000
GLOBL f64tanhexp<>(SB), RODATA, $32

DATA f64tp0<>+0(SB)/8, $0xBFEEDC5BAAFD6F4B // tanhP[0]
DATA f64tp0<>+8(SB)/8, $0xBFEEDC5BAAFD6F4B
DATA f64tp0<>+16(SB)/8, $0xBFEEDC5BAAFD6F4B
DATA f64tp0<>+24(SB)/8, $0xBFEEDC5BAAFD6F4B
GLOBL f64tp0<>(SB), RODATA, $32

DATA f64tp1<>+0(SB)/8, $0xC058D26A0E26682D // tanhP[1]
DATA f64tp1<>+8(SB)/8, $0xC058D26A0E26682D
DATA f64tp1<>+16(SB)/8, $0xC058D26A0E26682D
DATA f64tp1<>+24(SB)/8, $0xC058D26A0E26682D
GLOBL f64tp1<>(SB), RODATA, $32

DATA f64tp2<>+0(SB)/8, $0xC0993AC030580563 // tanhP[2]
DATA f64tp2<>+8(SB)/8, $0xC0993AC030580563
DATA f64tp2<>+16(SB)/8, $0xC0993AC030580563
DATA f64tp2<>+24(SB)/8, $0xC0993AC030580563
GLOBL f64tp2<>(SB), RODATA, $32

DATA f64tq0<>+0(SB)/8, $0x405C33F28A581B86 // tanhQ[0]
DATA f64tq0<>+8(SB)/8, $0x405C33F28A581B86
DATA f64tq0<>+16(SB)/8, $0x405C33F28A581B86
DATA f64tq0<>+24(SB)/8, $0x405C33F28A581B86
GLOBL f64tq0<>(SB), RODATA, $32

DATA f64tq1<>+0(SB)/8, $0x40A176FA0E5535FA // tanhQ[1]
DATA f64tq1<>+8(SB)/8, $0x40A176FA0E5535FA
DATA f64tq1<>+16(SB)/8, $0x40A176FA0E5535FA
DATA f64tq1<>+24(SB)/8, $0x40A176FA0E5535FA
GLOBL f64tq1<>(SB), RODATA, $32

DATA f64tq2<>+0(SB)/8, $0x40B2EC102442040C // tanhQ[2]
DATA f64tq2<>+8(SB)/8, $0x40B2EC102442040C
DATA f64tq2<>+16(SB)/8, $0x40B2EC102442040C
DATA f64tq2<>+24(SB)/8, $0x40B2EC102442040C
GLOBL f64tq2<>(SB), RODATA, $32

DATA f64sign<>+0(SB)/8, $0x8000000000000000
DATA f64sign<>+8(SB)/8, $0x8000000000000000
DATA f64sign<>+16(SB)/8, $0x8000000000000000
DATA f64sign<>+24(SB)/8, $0x8000000000000000
GLOBL f64sign<>(SB), RODATA, $32

DATA f64abs<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA f64abs<>+8(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA f64abs<>+16(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA f64abs<>+24(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL f64abs<>(SB), RODATA, $32

// EXPF64CORE sets Y1 = expF64(Y0) lane by lane for lanes with x in
// [−708, 709] and |x| ≥ 2⁻²⁸ (callers blend or decline the others), in
// expF64's operations and order, every product rounded (VMULPD, never
// FMA): k = trunc(Log2e·x ± 0.5), hi = x − k·Ln2Hi, lo = k·Ln2Lo,
// r = hi − lo, the expmulti polynomial, then y·2^k by adding k to the
// exponent bits, exact there (k ∈ [−1021, 1023]). Clobbers Y2–Y6.
#define EXPF64CORE \
	VANDPD      f64sign<>(SB), Y0, Y2  \
	VORPD       f64half<>(SB), Y2, Y2  \
	VMULPD      f64log2e<>(SB), Y0, Y3 \
	VADDPD      Y2, Y3, Y3             \
	VCVTTPD2DQY Y3, X4                 \
	VCVTDQ2PD   X4, Y3                 \
	VPMOVSXDQ   X4, Y4                 \
	VPSLLQ      $52, Y4, Y4            \
	VMULPD      f64ln2hi<>(SB), Y3, Y2 \
	VSUBPD      Y2, Y0, Y2             \
	VMULPD      f64ln2lo<>(SB), Y3, Y3 \
	VSUBPD      Y3, Y2, Y5             \
	VMULPD      Y5, Y5, Y6             \
	VMULPD      f64p5<>(SB), Y6, Y1    \
	VADDPD      f64p4<>(SB), Y1, Y1    \
	VMULPD      Y6, Y1, Y1             \
	VADDPD      f64p3<>(SB), Y1, Y1    \
	VMULPD      Y6, Y1, Y1             \
	VADDPD      f64p2<>(SB), Y1, Y1    \
	VMULPD      Y6, Y1, Y1             \
	VADDPD      f64p1<>(SB), Y1, Y1    \
	VMULPD      Y6, Y1, Y1             \
	VSUBPD      Y1, Y5, Y1             \
	VMULPD      Y1, Y5, Y6             \
	VMOVUPD     f64two<>(SB), Y5       \
	VSUBPD      Y1, Y5, Y1             \
	VDIVPD      Y1, Y6, Y6             \
	VSUBPD      Y6, Y3, Y6             \
	VSUBPD      Y2, Y6, Y6             \
	VMOVUPD     f64one<>(SB), Y1       \
	VSUBPD      Y6, Y1, Y1             \
	VPADDQ      Y4, Y1, Y1

// func expShiftSumAsm(src, dst []float64, shift, sum float64) (n int, total float64)
//
// dst[j] = expF64(src[j] − shift), four lanes per group, the last 1–3
// under the lane mask in Y13 (live-lane bits in R9); each group's values
// are added to the running sum in X14 in j order. A group with a live
// lane outside [−708, 709], or NaN, is left untouched: the kernel returns
// its index and the sum so far.
TEXT ·expShiftSumAsm(SB), NOSPLIT, $0-80
	MOVQ src_base+0(FP), SI
	MOVQ src_len+8(FP), CX
	MOVQ dst_base+24(FP), DI
	VBROADCASTSD shift+48(FP), Y15
	VMOVSD sum+56(FP), X14
	LEAQ f64mask<>(SB), R8
	XORQ AX, AX              // element index

esgroup:
	MOVQ CX, DX
	SUBQ AX, DX              // elements left
	JLE  esdone
	CMPQ DX, $4
	JLT  estail
	MOVQ $4, DX
	MOVQ $15, R9
	VMOVUPD (SI)(AX*8), Y0
	JMP  esx

estail:
	MOVQ       DX, R9
	SHLQ       $5, R9
	VMOVUPD    (R8)(R9*1), Y13
	VMOVMSKPD  Y13, R9
	VMASKMOVPD (SI)(AX*8), Y13, Y0

esx:
	VSUBPD    Y15, Y0, Y0    // x = v − shift
	VCMPPD    $13, f64explo<>(SB), Y0, Y1 // x ≥ −708
	VCMPPD    $2, f64exphi<>(SB), Y0, Y2  // x ≤ 709
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, R10
	ANDQ      R9, R10
	CMPQ      R10, R9
	JNE       esdone
	EXPF64CORE
	VANDPD    f64abs<>(SB), Y0, Y2
	VCMPPD    $1, f64nearzero<>(SB), Y2, Y2 // |x| < 2⁻²⁸
	VADDPD    f64one<>(SB), Y0, Y3          // 1 + x
	VBLENDVPD Y2, Y3, Y1, Y1
	CMPQ      DX, $4
	JLT       esmstore
	VMOVUPD   Y1, (DI)(AX*8)
	JMP       essum

esmstore:
	VMASKMOVPD Y1, Y13, (DI)(AX*8)

essum:
	// sum += e_j lane by lane, j ascending, live lanes only.
	VADDSD       X1, X14, X14
	CMPQ         DX, $2
	JLT          esnext
	VUNPCKHPD    X1, X1, X2
	VADDSD       X2, X14, X14
	CMPQ         DX, $3
	JLT          esnext
	VEXTRACTF128 $1, Y1, X3
	VADDSD       X3, X14, X14
	CMPQ         DX, $4
	JLT          esnext
	VUNPCKHPD    X3, X3, X3
	VADDSD       X3, X14, X14

esnext:
	ADDQ DX, AX
	JMP  esgroup

esdone:
	MOVQ   AX, n+64(FP)
	VMOVSD X14, total+72(FP)
	VZEROUPPER
	RET

// func geluF64Asm(x, out []float64)
//
// out[i] = geluF64(x[i]), four lanes per group, the last 1–3 under the
// lane mask in Y13 (live-lane bits in R9). Per lane: v in Y14, u in Y7,
// z = |u| in Y8, the saturated lanes (z > MAXLOG/2) in Y9 and the exp
// lanes (0.625 ≤ z ≤ MAXLOG/2) in Y10; the rest, NaN included, take the
// rational branch. Both branches end in one division N/D (Y11/Y12): the
// rational branch's u·s·num / den, the exp branch's 2 / (e^{2z}+1).
TEXT ·geluF64Asm(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ out_base+24(FP), DI
	LEAQ f64mask<>(SB), R8
	XORQ AX, AX              // element index

gegroup:
	MOVQ CX, DX
	SUBQ AX, DX              // elements left
	JLE  gedone
	CMPQ DX, $4
	JLT  getail
	MOVQ $4, DX
	MOVQ $15, R9
	VMOVUPD (SI)(AX*8), Y14
	JMP  geu

getail:
	MOVQ       DX, R9
	SHLQ       $5, R9
	VMOVUPD    (R8)(R9*1), Y13
	VMOVMSKPD  Y13, R9
	VMASKMOVPD (SI)(AX*8), Y13, Y14

geu:
	// u = √(2/π)·(v + ((0.044715·v)·v)·v)
	VMULPD  f64gelua<>(SB), Y14, Y7
	VMULPD  Y14, Y7, Y7
	VMULPD  Y14, Y7, Y7
	VADDPD  Y7, Y14, Y7
	VMULPD  f64geluc<>(SB), Y7, Y7
	VANDPD  f64abs<>(SB), Y7, Y8
	VCMPPD  $14, f64tanhsat<>(SB), Y8, Y9  // z > MAXLOG/2
	VCMPPD  $13, f64tanhexp<>(SB), Y8, Y10 // z ≥ 0.625
	VANDNPD Y10, Y9, Y10
	VORPD   Y9, Y10, Y1
	VMOVMSKPD Y1, R10
	ANDQ    R9, R10
	CMPQ    R10, R9
	JNE     gepoly
	VMOVUPD f64one<>(SB), Y11 // no rational lane: N = D = 1
	VMOVUPD Y11, Y12
	JMP     geexp

gepoly:
	// s = u·u; num = (P0·s + P1)·s + P2; den = ((s + Q0)·s + Q1)·s + Q2;
	// N = (u·s)·num.
	VMULPD Y7, Y7, Y1
	VMULPD f64tp0<>(SB), Y1, Y2
	VADDPD f64tp1<>(SB), Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD f64tp2<>(SB), Y2, Y2
	VADDPD f64tq0<>(SB), Y1, Y12
	VMULPD Y1, Y12, Y12
	VADDPD f64tq1<>(SB), Y12, Y12
	VMULPD Y1, Y12, Y12
	VADDPD f64tq2<>(SB), Y12, Y12
	VMULPD Y1, Y7, Y11
	VMULPD Y2, Y11, Y11

geexp:
	VMOVMSKPD Y10, R10
	ANDQ      R9, R10
	JZ        gediv
	VADDPD    Y8, Y8, Y0     // 2z ∈ [1.25, 88.03]
	EXPF64CORE
	VADDPD    f64one<>(SB), Y1, Y1
	VBLENDVPD Y10, Y1, Y12, Y12            // D = e^{2z} + 1
	VBLENDVPD Y10, f64two<>(SB), Y11, Y11  // N = 2

gediv:
	VDIVPD    Y12, Y11, Y11  // q = N/D
	VADDPD    Y11, Y7, Y1    // rational: u + q
	VMOVUPD   f64one<>(SB), Y2
	VSUBPD    Y11, Y2, Y2    // exp: 1 − q
	VANDPD    f64sign<>(SB), Y7, Y3
	VXORPD    Y3, Y2, Y2     // negated where u < 0
	VBLENDVPD Y10, Y2, Y1, Y1
	VORPD     f64one<>(SB), Y3, Y3 // ±1
	VBLENDVPD Y9, Y3, Y1, Y1       // tanh(u)
	VADDPD    f64one<>(SB), Y1, Y1 // 1 + tanh(u)
	VMULPD    f64half<>(SB), Y14, Y2
	VMULPD    Y1, Y2, Y1           // 0.5·v·(1 + tanh(u))
	CMPQ      DX, $4
	JLT       gemstore
	VMOVUPD   Y1, (DI)(AX*8)
	JMP       genext

gemstore:
	VMASKMOVPD Y1, Y13, (DI)(AX*8)

genext:
	ADDQ DX, AX
	JMP  gegroup

gedone:
	VZEROUPPER
	RET
