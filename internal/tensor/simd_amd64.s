// AVX2 and AVX-512 kernels (see simd_amd64.go). The float64 kernels
// (gemmF64AVX2, gemmF64AVX512, attnF64AVX2, attnF64AVX512, expShiftSumAsm,
// geluF64Asm)
// are bitwise equal to their Go mirrors: they vectorize across independent
// outputs only and round every product before adding it (VMULPD then
// VADDPD, never FMA), and the exp and tanh lanes run the scalar ports'
// operations in their order, so float64 stays the bitwise-golden path on
// every amd64 host.
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

// func x86HasAVX512F() bool
//
// Requires OSXSAVE with full ZMM/opmask state (XCR0[7:5] and [2:1]) and
// AVX512F (CPUID.7.0:EBX[16]).
TEXT ·x86HasAVX512F(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  fno
	MOVL $1, AX
	CPUID
	TESTL $(1<<27), CX
	JZ   fno
	MOVL $0, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  fno
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	TESTL $(1<<16), BX
	JZ   fno
	MOVB $1, ret+0(FP)
	RET

fno:
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

// GEMMROWZ is GEMMROW on ZMM: the 16-column strip in Z8/Z9.
#define GEMMROWZ(r, lo, hi) \
	VBROADCASTSD (r)(R14*1), Z10 \
	VMULPD       Z8, Z10, Z11    \
	VMULPD       Z9, Z10, Z12    \
	VADDPD       Z11, lo, lo     \
	VADDPD       Z12, hi, hi

// GEMMENTER loads the GEMM arguments both kernels share: a rows in AX,
// out in DX, rows left in CX, the k bound in bytes in R8, the column
// bound in bytes at nb, the b and out row strides in bytes in R13 and
// R10. It jumps to done when there is nothing to write.
#define GEMMENTER(done) \
	MOVQ  a_base+0(FP), AX    \
	MOVQ  out_base+72(FP), DX \
	MOVQ  rows+96(FP), CX     \
	MOVQ  k+104(FP), R8       \
	MOVQ  n+112(FP), R9       \
	MOVQ  ldb+128(FP), R13    \
	MOVQ  ldo+136(FP), R10    \
	SHLQ  $3, R8              \
	SHLQ  $3, R9              \
	MOVQ  R9, nb-32(SP)       \
	SHLQ  $3, R13             \
	SHLQ  $3, R10             \
	TESTQ R9, R9              \
	JZ    done                \
	TESTQ CX, CX              \
	JLE   done

// GEMMROWS points BX, R11, R12 at a rows 1–3 of the group at AX and
// stores out row offsets 1–3 in o1–o3, repeating the last row when fewer
// than four are left (CX): its values are computed and stored again,
// and nothing outside the output is touched. R9 and R14 are clobbered.
#define GEMMROWS \
	MOVQ    lda+120(FP), R9 \
	SHLQ    $3, R9          \
	LEAQ    (AX)(R9*1), BX  \
	CMPQ    CX, $1          \
	CMOVQLE AX, BX          \
	LEAQ    (BX)(R9*1), R11 \
	CMPQ    CX, $2          \
	CMOVQLE BX, R11         \
	LEAQ    (R11)(R9*1), R12 \
	CMPQ    CX, $3          \
	CMOVQLE R11, R12        \
	XORQ    R14, R14        \
	CMPQ    CX, $1          \
	CMOVQGT R10, R14        \
	MOVQ    R14, o1-8(SP)   \
	LEAQ    (R14)(R10*1), R9 \
	CMPQ    CX, $2          \
	CMOVQLE R14, R9         \
	MOVQ    R9, o2-16(SP)   \
	LEAQ    (R9)(R10*1), R14 \
	CMPQ    CX, $3          \
	CMOVQLE R9, R14         \
	MOVQ    R14, o3-24(SP)

// GEMMNEXT advances AX and DX four rows and loops to group while rows
// are left.
#define GEMMNEXT(group) \
	MOVQ lda+120(FP), R9 \
	SHLQ $5, R9          \
	ADDQ R9, AX          \
	LEAQ (DX)(R10*4), DX \
	SUBQ $4, CX          \
	JG   group

// func gemmF64AVX2(a, b, bias, out []float64, rows, k, n, lda, ldb, ldo int)
//
// out[i][j] = (Σ_k a[i][k]·b[k][j]) + bias[j] for i < rows, j < n, with
// row strides lda, ldb and ldo in elements; bias may be nil. Four rows at a
// time (the last group of 1–3 repeats its last row in the missing slots,
// which only rewrites that row's own values): an 8-column strip keeps
// the four rows in Y0–Y7 (row r in Y(2r), Y(2r+1)); the last 1–7 columns
// run in masked strips of up to 4 (Y0, Y2, Y4, Y6; mask in Y15). Every
// accumulator starts at +0 and adds k ascending over the whole of k, and
// the bias is added once at the store: the Go loop's order, per element.
TEXT ·gemmF64AVX2(SB), NOSPLIT, $32-144
	GEMMENTER(gdone)

ggroup:
	GEMMROWS
	XORQ R9, R9              // column byte offset
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
	GEMMNEXT(ggroup)

gdone:
	VZEROUPPER
	RET

// Opmasks for 0–16 live float64 columns of a 16-column ZMM strip: entry
// c (at byte 2·c) enables columns 0..c-1; its low byte masks the strip's
// first eight columns and its high byte the second eight.
DATA gemmzmask<>+0(SB)/2, $0x0000
DATA gemmzmask<>+2(SB)/2, $0x0001
DATA gemmzmask<>+4(SB)/2, $0x0003
DATA gemmzmask<>+6(SB)/2, $0x0007
DATA gemmzmask<>+8(SB)/2, $0x000F
DATA gemmzmask<>+10(SB)/2, $0x001F
DATA gemmzmask<>+12(SB)/2, $0x003F
DATA gemmzmask<>+14(SB)/2, $0x007F
DATA gemmzmask<>+16(SB)/2, $0x00FF
DATA gemmzmask<>+18(SB)/2, $0x01FF
DATA gemmzmask<>+20(SB)/2, $0x03FF
DATA gemmzmask<>+22(SB)/2, $0x07FF
DATA gemmzmask<>+24(SB)/2, $0x0FFF
DATA gemmzmask<>+26(SB)/2, $0x1FFF
DATA gemmzmask<>+28(SB)/2, $0x3FFF
DATA gemmzmask<>+30(SB)/2, $0x7FFF
DATA gemmzmask<>+32(SB)/2, $0xFFFF
GLOBL gemmzmask<>(SB), RODATA, $34

// func gemmF64AVX512(a, b, bias, out []float64, rows, k, n, lda, ldb, ldo int)
//
// gemmF64AVX2's contract on ZMM: four rows at a time (the last group of
// 1–3 repeats its last row), a 16-column strip keeps the four rows in
// Z0–Z7 (row r in Z(2r), Z(2r+1)), and b loads twice per k. The last
// 1–15 columns run as one more strip under the opmasks K1 (its first
// eight columns) and K2 (the second eight): masked-off lanes are neither
// loaded nor stored. Every accumulator starts at +0 and adds k ascending,
// and the bias is added once at the store, as in the Go loop.
TEXT ·gemmF64AVX512(SB), NOSPLIT, $32-144
	GEMMENTER(zdone)

zgroup:
	GEMMROWS
	XORQ R9, R9              // column byte offset

zstrip:
	MOVQ     nb-32(SP), DI
	SUBQ     R9, DI          // column bytes left
	JLE      znext
	MOVQ     $128, SI
	CMPQ     DI, SI
	CMOVQGT  SI, DI
	SHRQ     $2, DI          // min(16, columns left), times 2
	LEAQ     gemmzmask<>(SB), SI
	KMOVW    (SI)(DI*1), K1
	KSHIFTRW $8, K1, K2
	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	VXORPD Z4, Z4, Z4
	VXORPD Z5, Z5, Z5
	VXORPD Z6, Z6, Z6
	VXORPD Z7, Z7, Z7
	MOVQ  b_base+24(FP), DI
	ADDQ  R9, DI             // b[0][j]
	XORQ  R14, R14
	TESTQ R8, R8
	JZ    zstore

zk:
	VMOVUPD.Z (DI), K1, Z8
	VMOVUPD.Z 64(DI), K2, Z9
	GEMMROWZ(AX, Z0, Z1)
	GEMMROWZ(BX, Z2, Z3)
	GEMMROWZ(R11, Z4, Z5)
	GEMMROWZ(R12, Z6, Z7)
	ADDQ R13, DI
	ADDQ $8, R14
	CMPQ R14, R8
	JLT  zk

zstore:
	MOVQ  bias_base+48(FP), DI
	TESTQ DI, DI
	JZ    zput
	VMOVUPD.Z (DI)(R9*1), K1, Z8
	VMOVUPD.Z 64(DI)(R9*1), K2, Z9
	VADDPD    Z8, Z0, Z0
	VADDPD    Z9, Z1, Z1
	VADDPD    Z8, Z2, Z2
	VADDPD    Z9, Z3, Z3
	VADDPD    Z8, Z4, Z4
	VADDPD    Z9, Z5, Z5
	VADDPD    Z8, Z6, Z6
	VADDPD    Z9, Z7, Z7

zput:
	LEAQ    (DX)(R9*1), SI
	VMOVUPD Z0, K1, (SI)
	VMOVUPD Z1, K2, 64(SI)
	MOVQ    o1-8(SP), DI
	VMOVUPD Z2, K1, (SI)(DI*1)
	VMOVUPD Z3, K2, 64(SI)(DI*1)
	MOVQ    o2-16(SP), DI
	VMOVUPD Z4, K1, (SI)(DI*1)
	VMOVUPD Z5, K2, 64(SI)(DI*1)
	MOVQ    o3-24(SP), DI
	VMOVUPD Z6, K1, (SI)(DI*1)
	VMOVUPD Z7, K2, 64(SI)(DI*1)
	ADDQ    $128, R9
	JMP     zstrip

znext:
	GEMMNEXT(zgroup)

zdone:
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

DATA f64neginf<>+0(SB)/8, $0xFFF0000000000000 // −Inf, the max's start
GLOBL f64neginf<>(SB), RODATA, $8

// ZEXPF64CORE is EXPF64CORE on ZMM: Z0 in, Z1 out, the same operations in
// the same order on eight lanes. Clobbers Z2–Z6.
#define ZEXPF64CORE \
	VPANDQ.BCST  f64sign<>(SB), Z0, Z2  \
	VPORQ.BCST   f64half<>(SB), Z2, Z2  \
	VMULPD.BCST  f64log2e<>(SB), Z0, Z3 \
	VADDPD       Z2, Z3, Z3             \
	VCVTTPD2DQ   Z3, Y4                 \
	VCVTDQ2PD    Y4, Z3                 \
	VPMOVSXDQ    Y4, Z4                 \
	VPSLLQ       $52, Z4, Z4            \
	VMULPD.BCST  f64ln2hi<>(SB), Z3, Z2 \
	VSUBPD       Z2, Z0, Z2             \
	VMULPD.BCST  f64ln2lo<>(SB), Z3, Z3 \
	VSUBPD       Z3, Z2, Z5             \
	VMULPD       Z5, Z5, Z6             \
	VMULPD.BCST  f64p5<>(SB), Z6, Z1    \
	VADDPD.BCST  f64p4<>(SB), Z1, Z1    \
	VMULPD       Z6, Z1, Z1             \
	VADDPD.BCST  f64p3<>(SB), Z1, Z1    \
	VMULPD       Z6, Z1, Z1             \
	VADDPD.BCST  f64p2<>(SB), Z1, Z1    \
	VMULPD       Z6, Z1, Z1             \
	VADDPD.BCST  f64p1<>(SB), Z1, Z1    \
	VMULPD       Z6, Z1, Z1             \
	VSUBPD       Z1, Z5, Z1             \
	VMULPD       Z1, Z5, Z6             \
	VBROADCASTSD f64two<>(SB), Z5       \
	VSUBPD       Z1, Z5, Z1             \
	VDIVPD       Z1, Z6, Z6             \
	VSUBPD       Z6, Z3, Z6             \
	VSUBPD       Z2, Z6, Z6             \
	VBROADCASTSD f64one<>(SB), Z1       \
	VSUBPD       Z6, Z1, Z1             \
	VPADDQ       Z4, Z1, Z1

// The attention kernels share one layout. Lane l of a group holds query
// row i0+l; work holds the group's transposed Q (qT: column c's lanes at
// c·lb bytes, lb = 8·lanes), then its score columns (Wt: column j's
// lanes at d·lb + j·lb). On AVX2, which has no scatter, qT's room takes
// the AV columns once the scores are done, and scalar copies move the
// live lanes of Wt and of the AV columns into a and out. Registers: S in
// CX, d and the row stride in bytes in R8 and R9, work in R13, i0 in AX,
// the group's live lanes in DX.

// ATTNENTER loads the shared arguments.
#define ATTNENTER \
	MOVQ rows+144(FP), CX       \
	MOVQ d+152(FP), R8          \
	MOVQ stride+160(FP), R9     \
	MOVQ work_base+120(FP), R13 \
	MOVQ row+176(FP), AX        \
	SHLQ $3, R8                 \
	SHLQ $3, R9

// ATTNLANES sets DX to min(n, S − i0), or jumps to done when no row is
// left.
#define ATTNLANES(n, done) \
	MOVQ    CX, DX \
	SUBQ    AX, DX \
	JLE     done   \
	MOVQ    n, BX  \
	CMPQ    DX, BX \
	CMOVQGT BX, DX

// ATTNQT copies the live rows' Q into qT (lb = 8·sc); the caller has
// zeroed the dead lanes.
#define ATTNQT(sc) \
	MOVQ  q_base+0(FP), SI \
	MOVQ  AX, BX           \
	IMULQ R9, BX           \
	ADDQ  BX, SI           \
	MOVQ  R13, DI          \
	MOVQ  DX, R10          \
aqrow:                     \
	XORQ  R14, R14         \
	JMP   aqnext           \
aqcol:                     \
	MOVQ  (SI)(R14*1), BX  \
	MOVQ  BX, (DI)(R14*sc) \
	ADDQ  $8, R14          \
aqnext:                    \
	CMPQ  R14, R8          \
	JLT   aqcol            \
	ADDQ  R9, SI           \
	ADDQ  $8, DI           \
	DECQ  R10              \
	JNZ   aqrow

// ATTNACOPY copies the live lanes of Wt (lb bytes a column, at d·lb) into
// rows i0.. of a, row-major S wide.
#define ATTNACOPY(sc, lb) \
	MOVQ  a_base+72(FP), DI \
	MOVQ  AX, BX            \
	IMULQ CX, BX            \
	LEAQ  (DI)(BX*8), DI    \
	LEAQ  (R13)(R8*sc), SI  \
	MOVQ  DX, R10           \
acrow:                      \
	MOVQ  SI, R11           \
	XORQ  R14, R14          \
accol:                      \
	MOVQ  (R11), BX         \
	MOVQ  BX, (DI)(R14*8)   \
	ADDQ  $lb, R11          \
	INCQ  R14               \
	CMPQ  R14, CX           \
	JLT   accol             \
	ADDQ  $8, SI            \
	LEAQ  (DI)(CX*8), DI    \
	DECQ  R10               \
	JNZ   acrow

// ATTNOCOPY copies the live lanes of the AV columns in qT's room into
// rows i0.. of out.
#define ATTNOCOPY(sc) \
	MOVQ  out_base+96(FP), DI \
	MOVQ  AX, BX              \
	IMULQ R9, BX              \
	ADDQ  BX, DI              \
	MOVQ  R13, SI             \
	MOVQ  DX, R10             \
ocrow:                        \
	XORQ  R14, R14            \
	JMP   ocnext              \
occol:                        \
	MOVQ  (SI)(R14*sc), BX    \
	MOVQ  BX, (DI)(R14*1)     \
	ADDQ  $8, R14             \
ocnext:                       \
	CMPQ  R14, R8             \
	JLT   occol               \
	ADDQ  $8, SI              \
	ADDQ  R9, DI              \
	DECQ  R10                 \
	JNZ   ocrow

// func attnF64AVX2(q, k, v, a, out, work []float64, rows, d, stride int, scale float64, row int) (stop, bad int)
//
// Per group of four rows: qT; the scores four columns j at a time (Y0–Y3,
// each from +0, c ascending, then times the scale in Y11) into Wt, the max
// in Y13 taken in j order by VMAXPD (s > max ? s : max, so NaN never wins
// and the first of equal values stays); the exps in j order, summed into
// Y14, Y15 keeping the lanes whose arguments were all in range; Wt times
// 1/sum; then AV four columns c at a time, j ascending from +0.
TEXT ·attnF64AVX2(SB), NOSPLIT, $0-200
	ATTNENTER
	VBROADCASTSD scale+168(FP), Y11
	VXORPD       Y10, Y10, Y10

yagroup:
	ATTNLANES($4, yadone)
	CMPQ DX, $4
	JEQ  yaq
	XORQ R14, R14
	JMP  yaqzt

yaqz:
	VMOVUPD Y10, (R13)(R14*4)
	ADDQ    $8, R14

yaqzt:
	CMPQ R14, R8
	JLT  yaqz

yaq:
	ATTNQT(4)
	VBROADCASTSD f64neginf<>(SB), Y13
	LEAQ         (R13)(R8*4), DI // Wt column j
	MOVQ         k_base+24(FP), BX // k row j
	MOVQ         CX, SI          // columns left

yas4:
	CMPQ   SI, $4
	JLT    yas1
	LEAQ   (BX)(R9*1), R10
	LEAQ   (BX)(R9*2), R11
	LEAQ   (R10)(R9*2), R12
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   R14, R14
	JMP    yas4t

yas4c:
	VMOVUPD      (R13)(R14*4), Y8
	VBROADCASTSD (BX)(R14*1), Y4
	VBROADCASTSD (R10)(R14*1), Y5
	VBROADCASTSD (R11)(R14*1), Y6
	VBROADCASTSD (R12)(R14*1), Y7
	VMULPD       Y4, Y8, Y4
	VMULPD       Y5, Y8, Y5
	VMULPD       Y6, Y8, Y6
	VMULPD       Y7, Y8, Y7
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	ADDQ         $8, R14

yas4t:
	CMPQ    R14, R8
	JLT     yas4c
	VMULPD  Y11, Y0, Y0
	VMULPD  Y11, Y1, Y1
	VMULPD  Y11, Y2, Y2
	VMULPD  Y11, Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMAXPD  Y13, Y0, Y13
	VMAXPD  Y13, Y1, Y13
	VMAXPD  Y13, Y2, Y13
	VMAXPD  Y13, Y3, Y13
	ADDQ    $128, DI
	LEAQ    (R12)(R9*1), BX
	SUBQ    $4, SI
	JMP     yas4

yas1:
	TESTQ  SI, SI
	JZ     yaexp
	VXORPD Y0, Y0, Y0
	XORQ   R14, R14
	JMP    yas1t

yas1c:
	VMOVUPD      (R13)(R14*4), Y8
	VBROADCASTSD (BX)(R14*1), Y4
	VMULPD       Y4, Y8, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         $8, R14

yas1t:
	CMPQ    R14, R8
	JLT     yas1c
	VMULPD  Y11, Y0, Y0
	VMOVUPD Y0, (DI)
	VMAXPD  Y13, Y0, Y13
	ADDQ    $32, DI
	ADDQ    R9, BX
	DECQ    SI
	JMP     yas1

yaexp:
	LEAQ     (R13)(R8*4), DI
	MOVQ     CX, SI
	VXORPD   Y14, Y14, Y14
	VPCMPEQQ Y15, Y15, Y15

yae:
	VMOVUPD   (DI), Y0
	VSUBPD    Y13, Y0, Y0                 // x = s − max
	VCMPPD    $13, f64explo<>(SB), Y0, Y1 // x ≥ −708
	VCMPPD    $2, f64exphi<>(SB), Y0, Y2  // x ≤ 709
	VANDPD    Y1, Y15, Y15
	VANDPD    Y2, Y15, Y15
	EXPF64CORE
	VANDPD    f64abs<>(SB), Y0, Y2
	VCMPPD    $1, f64nearzero<>(SB), Y2, Y2 // |x| < 2⁻²⁸
	VADDPD    f64one<>(SB), Y0, Y3          // 1 + x
	VBLENDVPD Y2, Y3, Y1, Y1
	VMOVUPD   Y1, (DI)
	VADDPD    Y1, Y14, Y14
	ADDQ      $32, DI
	DECQ      SI
	JNZ       yae
	VMOVUPD   f64one<>(SB), Y1
	VDIVPD    Y14, Y1, Y14                  // 1/sum
	LEAQ      (R13)(R8*4), DI
	MOVQ      CX, SI

yan:
	VMOVUPD (DI), Y0
	VMULPD  Y14, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	DECQ    SI
	JNZ     yan
	ATTNACOPY(4, 32)
	XORQ    R14, R14                    // column c, in bytes

yav4:
	MOVQ   R8, BX
	SUBQ   R14, BX
	CMPQ   BX, $32
	JLT    yav1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (R13)(R8*4), DI
	MOVQ   v_base+48(FP), SI
	ADDQ   R14, SI                      // v[0][c]
	MOVQ   CX, R10

yav4j:
	VMOVUPD      (DI), Y8
	VBROADCASTSD (SI), Y4
	VBROADCASTSD 8(SI), Y5
	VBROADCASTSD 16(SI), Y6
	VBROADCASTSD 24(SI), Y7
	VMULPD       Y4, Y8, Y4
	VMULPD       Y5, Y8, Y5
	VMULPD       Y6, Y8, Y6
	VMULPD       Y7, Y8, Y7
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	ADDQ         $32, DI
	ADDQ         R9, SI
	DECQ         R10
	JNZ          yav4j
	VMOVUPD      Y0, (R13)(R14*4)
	VMOVUPD      Y1, 32(R13)(R14*4)
	VMOVUPD      Y2, 64(R13)(R14*4)
	VMOVUPD      Y3, 96(R13)(R14*4)
	ADDQ         $32, R14
	JMP          yav4

yav1:
	CMPQ   R14, R8
	JGE    yaout
	VXORPD Y0, Y0, Y0
	LEAQ   (R13)(R8*4), DI
	MOVQ   v_base+48(FP), SI
	ADDQ   R14, SI
	MOVQ   CX, R10

yav1j:
	VMOVUPD      (DI), Y8
	VBROADCASTSD (SI), Y4
	VMULPD       Y4, Y8, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         $32, DI
	ADDQ         R9, SI
	DECQ         R10
	JNZ          yav1j
	VMOVUPD      Y0, (R13)(R14*4)
	ADDQ         $8, R14
	JMP          yav1

yaout:
	ATTNOCOPY(4)
	VMOVMSKPD Y15, R10
	NOTQ      R10
	LEAQ      gemmzmask<>(SB), BX
	MOVWQZX   (BX)(DX*2), BX        // live lanes
	ANDQ      R10, BX
	JNZ       yabad
	ADDQ      $4, AX
	JMP       yagroup

yabad:
	MOVQ AX, stop+184(FP)
	MOVQ BX, bad+192(FP)
	VZEROUPPER
	RET

yadone:
	MOVQ CX, stop+184(FP)
	MOVQ $0, bad+192(FP)
	VZEROUPPER
	RET

DATA f64iota<>+0(SB)/8, $0
DATA f64iota<>+8(SB)/8, $1
DATA f64iota<>+16(SB)/8, $2
DATA f64iota<>+24(SB)/8, $3
DATA f64iota<>+32(SB)/8, $4
DATA f64iota<>+40(SB)/8, $5
DATA f64iota<>+48(SB)/8, $6
DATA f64iota<>+56(SB)/8, $7
GLOBL f64iota<>(SB), RODATA, $64

// ZAVSCATTER stores AV column z of the live rows to off(R11), row l at
// l·stride (Z26).
#define ZAVSCATTER(z, off) \
	KMOVW       K7, K1 \
	VSCATTERQPD z, K1, off(R11)(Z26*1)

// func attnF64AVX512(q, k, v, a, out, work []float64, rows, d, stride int, scale float64, row int) (stop, bad int)
//
// attnF64AVX2 on ZMM, eight rows a group, the lanes moved by gather and
// scatter instead of scalar copies: qT column c is one VGATHERQPD of the
// live rows (indices l·stride in Z26; dead lanes stay 0), and each column
// of a and of AV is one VSCATTERQPD to the live rows (indices l·S·8 in
// Z27, l·stride in Z26). The live lanes are in K7, the scale in Z31, the
// max in Z30 and the sum in Z29; K6 keeps the live lanes whose arguments
// were all in range. AV runs eight, four, then one column at a time.
TEXT ·attnF64AVX512(SB), NOSPLIT, $0-200
	ATTNENTER
	VBROADCASTSD scale+168(FP), Z31
	VMOVDQU64    f64iota<>(SB), Z25
	VPBROADCASTQ R9, Z26
	VPMULUDQ     Z25, Z26, Z26
	MOVQ         CX, BX
	SHLQ         $3, BX
	VPBROADCASTQ BX, Z27
	VPMULUDQ     Z25, Z27, Z27

zagroup:
	ATTNLANES($8, zadone)
	LEAQ  gemmzmask<>(SB), BX
	KMOVW (BX)(DX*2), K7
	MOVQ  q_base+0(FP), SI
	MOVQ  AX, BX
	IMULQ R9, BX
	ADDQ  BX, SI                 // q[i0][0]
	XORQ  R14, R14
	JMP   zaqt

zaqc:
	KMOVW      K7, K1
	VPXORQ     Z8, Z8, Z8
	VGATHERQPD (SI)(Z26*1), K1, Z8
	VMOVUPD    Z8, (R13)(R14*8)
	ADDQ       $8, SI
	ADDQ       $8, R14

zaqt:
	CMPQ         R14, R8
	JLT          zaqc
	VBROADCASTSD f64neginf<>(SB), Z30
	LEAQ         (R13)(R8*8), DI
	MOVQ         k_base+24(FP), BX
	MOVQ         CX, SI

zas4:
	CMPQ   SI, $4
	JLT    zas1
	LEAQ   (BX)(R9*1), R10
	LEAQ   (BX)(R9*2), R11
	LEAQ   (R10)(R9*2), R12
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	XORQ   R14, R14
	JMP    zas4t

zas4c:
	VMOVUPD     (R13)(R14*8), Z8
	VMULPD.BCST (BX)(R14*1), Z8, Z9
	VMULPD.BCST (R10)(R14*1), Z8, Z10
	VMULPD.BCST (R11)(R14*1), Z8, Z11
	VMULPD.BCST (R12)(R14*1), Z8, Z12
	VADDPD      Z9, Z0, Z0
	VADDPD      Z10, Z1, Z1
	VADDPD      Z11, Z2, Z2
	VADDPD      Z12, Z3, Z3
	ADDQ        $8, R14

zas4t:
	CMPQ    R14, R8
	JLT     zas4c
	VMULPD  Z31, Z0, Z0
	VMULPD  Z31, Z1, Z1
	VMULPD  Z31, Z2, Z2
	VMULPD  Z31, Z3, Z3
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMAXPD  Z30, Z0, Z30
	VMAXPD  Z30, Z1, Z30
	VMAXPD  Z30, Z2, Z30
	VMAXPD  Z30, Z3, Z30
	ADDQ    $256, DI
	LEAQ    (R12)(R9*1), BX
	SUBQ    $4, SI
	JMP     zas4

zas1:
	TESTQ  SI, SI
	JZ     zaexp
	VPXORQ Z0, Z0, Z0
	XORQ   R14, R14
	JMP    zas1t

zas1c:
	VMOVUPD     (R13)(R14*8), Z8
	VMULPD.BCST (BX)(R14*1), Z8, Z9
	VADDPD      Z9, Z0, Z0
	ADDQ        $8, R14

zas1t:
	CMPQ    R14, R8
	JLT     zas1c
	VMULPD  Z31, Z0, Z0
	VMOVUPD Z0, (DI)
	VMAXPD  Z30, Z0, Z30
	ADDQ    $64, DI
	ADDQ    R9, BX
	DECQ    SI
	JMP     zas1

zaexp:
	LEAQ   (R13)(R8*8), DI
	MOVQ   CX, SI
	VPXORQ Z29, Z29, Z29
	KMOVW  K7, K6

zae:
	VMOVUPD     (DI), Z0
	VSUBPD      Z30, Z0, Z0
	VCMPPD.BCST $13, f64explo<>(SB), Z0, K6, K6
	VCMPPD.BCST $2, f64exphi<>(SB), Z0, K6, K6
	ZEXPF64CORE
	VPANDQ.BCST f64abs<>(SB), Z0, Z2
	VCMPPD.BCST $1, f64nearzero<>(SB), Z2, K1
	VADDPD.BCST f64one<>(SB), Z0, K1, Z1
	VMOVUPD     Z1, (DI)
	VADDPD      Z1, Z29, Z29
	ADDQ        $64, DI
	DECQ        SI
	JNZ         zae

zanorm:
	VBROADCASTSD f64one<>(SB), Z1
	VDIVPD       Z29, Z1, Z29
	MOVQ         a_base+72(FP), R10
	MOVQ         AX, BX
	IMULQ        CX, BX
	LEAQ         (R10)(BX*8), R10 // a[i0][0]
	LEAQ         (R13)(R8*8), DI
	MOVQ         CX, SI

zan:
	VMOVUPD     (DI), Z0
	VMULPD      Z29, Z0, Z0
	VMOVUPD     Z0, (DI)
	KMOVW       K7, K1
	VSCATTERQPD Z0, K1, (R10)(Z27*1)
	ADDQ        $64, DI
	ADDQ        $8, R10
	DECQ        SI
	JNZ         zan
	MOVQ        out_base+96(FP), R11
	MOVQ        AX, BX
	IMULQ       R9, BX
	ADDQ        BX, R11          // out[i0][c]
	MOVQ        v_base+48(FP), R12 // v[0][c]
	MOVQ        R8, R14          // column bytes left

zav8:
	CMPQ   R14, $64
	JLT    zav4
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	LEAQ   (R13)(R8*8), DI
	MOVQ   R12, SI
	MOVQ   CX, R10

zav8j:
	VMOVUPD     (DI), Z8
	VMULPD.BCST (SI), Z8, Z9
	VMULPD.BCST 8(SI), Z8, Z10
	VMULPD.BCST 16(SI), Z8, Z11
	VMULPD.BCST 24(SI), Z8, Z12
	VMULPD.BCST 32(SI), Z8, Z13
	VMULPD.BCST 40(SI), Z8, Z14
	VMULPD.BCST 48(SI), Z8, Z15
	VMULPD.BCST 56(SI), Z8, Z16
	VADDPD      Z9, Z0, Z0
	VADDPD      Z10, Z1, Z1
	VADDPD      Z11, Z2, Z2
	VADDPD      Z12, Z3, Z3
	VADDPD      Z13, Z4, Z4
	VADDPD      Z14, Z5, Z5
	VADDPD      Z15, Z6, Z6
	VADDPD      Z16, Z7, Z7
	ADDQ        $64, DI
	ADDQ        R9, SI
	DECQ        R10
	JNZ         zav8j
	ZAVSCATTER(Z0, 0)
	ZAVSCATTER(Z1, 8)
	ZAVSCATTER(Z2, 16)
	ZAVSCATTER(Z3, 24)
	ZAVSCATTER(Z4, 32)
	ZAVSCATTER(Z5, 40)
	ZAVSCATTER(Z6, 48)
	ZAVSCATTER(Z7, 56)
	ADDQ        $64, R11
	ADDQ        $64, R12
	SUBQ        $64, R14
	JMP         zav8

zav4:
	CMPQ   R14, $32
	JLT    zav1
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	LEAQ   (R13)(R8*8), DI
	MOVQ   R12, SI
	MOVQ   CX, R10

zav4j:
	VMOVUPD     (DI), Z8
	VMULPD.BCST (SI), Z8, Z9
	VMULPD.BCST 8(SI), Z8, Z10
	VMULPD.BCST 16(SI), Z8, Z11
	VMULPD.BCST 24(SI), Z8, Z12
	VADDPD      Z9, Z0, Z0
	VADDPD      Z10, Z1, Z1
	VADDPD      Z11, Z2, Z2
	VADDPD      Z12, Z3, Z3
	ADDQ        $64, DI
	ADDQ        R9, SI
	DECQ        R10
	JNZ         zav4j
	ZAVSCATTER(Z0, 0)
	ZAVSCATTER(Z1, 8)
	ZAVSCATTER(Z2, 16)
	ZAVSCATTER(Z3, 24)
	ADDQ        $32, R11
	ADDQ        $32, R12
	SUBQ        $32, R14

zav1:
	TESTQ  R14, R14
	JZ     zaend
	VPXORQ Z0, Z0, Z0
	LEAQ   (R13)(R8*8), DI
	MOVQ   R12, SI
	MOVQ   CX, R10

zav1j:
	VMOVUPD     (DI), Z8
	VMULPD.BCST (SI), Z8, Z9
	VADDPD      Z9, Z0, Z0
	ADDQ        $64, DI
	ADDQ        R9, SI
	DECQ        R10
	JNZ         zav1j
	ZAVSCATTER(Z0, 0)
	ADDQ        $8, R11
	ADDQ        $8, R12
	SUBQ        $8, R14
	JMP         zav1

zaend:
	KMOVW K7, BX
	KMOVW K6, R10
	XORQ  R10, BX
	JNZ   zabad
	ADDQ  $8, AX
	JMP   zagroup

zabad:
	MOVQ AX, stop+184(FP)
	MOVQ BX, bad+192(FP)
	VZEROUPPER
	RET

zadone:
	MOVQ CX, stop+184(FP)
	MOVQ $0, bad+192(FP)
	VZEROUPPER
	RET
