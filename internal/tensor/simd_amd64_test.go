package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// ---- amd64 SIMD kernels vs their pure-Go mirrors: float64 and low precision ----

// sameBits32 fails the test at the first element whose bits differ.
func sameBits32(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s [%d]: asm %g (%#08x), go %g (%#08x)", name, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// withQuantBackends calls fn once per int8 kernel set this host can run
// (pure Go, AVX2, AVX-512 VNNI), with the dispatch gates set to select
// it, and restores the gates afterwards.
func withQuantBackends(fn func(backend string)) {
	simd, vnni := haveSIMD, haveVNNI
	defer func() { haveSIMD, haveVNNI = simd, vnni }()
	haveSIMD, haveVNNI = false, false
	fn("go")
	if simd {
		haveSIMD = true
		fn("avx2")
	}
	if vnni {
		haveVNNI = true
		fn("vnni")
	}
}

// tileGuard is the sentinel the tile kernel tests fill past the end of
// each output slice; a kernel that writes beyond its rows overwrites it.
const tileGuard = 0x5EA1

// TestInt8TileKernelsMatchGo: integer arithmetic must agree exactly
// across every available backend on the shared blocked layout, for every
// row count up to two full groups of four plus a 1-row tail, down to the
// 4-k KPad quantum (the VNNI loop's step), without writing past the
// tile's rows.
func TestInt8TileKernelsMatchGo(t *testing.T) {
	if !haveSIMD {
		t.Skip("no AVX2/FMA on this host")
	}
	rng := rand.New(rand.NewSource(2))
	kernels := map[string]func(qa []int16, wt []int8, acc []int32, rows, kPad, nPad int){
		"AVX2": int8TileAVX2,
	}
	if haveVNNI {
		kernels["VNNI"] = int8TileVNNI
	}
	for rows := 1; rows <= 9; rows++ {
		for _, kPad := range []int{4, 8, 12, 32, 48, 52, 64, 96, 100, 3104} {
			for _, nPad := range []int{16, 32, 48, 96} {
				qa := make([]int16, rows*kPad)
				for i := range qa {
					qa[i] = int16(rng.Intn(255) - 127)
				}
				wt := make([]int8, kPad*nPad)
				for i := range wt {
					wt[i] = int8(rng.Intn(255) - 127)
				}
				want := make([]int32, rows*nPad)
				int8TileGo(qa, wt, want, rows, kPad, nPad)

				for name, kern := range kernels {
					got := make([]int32, rows*nPad+int8NPadAlign)
					for i := range got {
						got[i] = tileGuard
					}
					kern(qa, wt, got[:rows*nPad], rows, kPad, nPad)
					for j := range want {
						if want[j] != got[j] {
							t.Fatalf("%s rows=%d KPad=%d NPad=%d acc[%d,%d]: asm %d, go %d",
								name, rows, kPad, nPad, j/nPad, j%nPad, got[j], want[j])
						}
					}
					for j, v := range got[rows*nPad:] {
						if v != tileGuard {
							t.Fatalf("%s rows=%d KPad=%d NPad=%d: wrote %d past the tile at +%d",
								name, rows, kPad, nPad, v, j)
						}
					}
				}
			}
		}
	}
}

// TestQuantDequantTileKernelsMatchGo pins quantTileAsm and
// dequantTileAsm to their Go mirrors bit for bit — quantized rows, pad
// lanes, recorded max-abs and dequantized outputs — across widths on both
// sides of the 8-lane vector step, with all-zero rows, with and without a
// bias, and without writing past the tile.
func TestQuantDequantTileKernelsMatchGo(t *testing.T) {
	if !haveSIMD {
		t.Skip("no AVX2/FMA on this host")
	}
	rng := rand.New(rand.NewSource(21))
	for rows := 1; rows <= 9; rows++ {
		for _, k := range []int{1, 3, 4, 7, 8, 9, 15, 45, 48, 96, 100} {
			kPad := (k + int8KPadAlign - 1) &^ (int8KPadAlign - 1)
			x := randSlice32(rng, rows*k, 3)
			for i := 0; i < rows; i++ {
				if rng.Intn(3) == 0 {
					clear(x[i*k : (i+1)*k])
				}
			}
			wantQ, wantM := make([]int16, rows*kPad), make([]float32, rows)
			quantTileGo(x, k, kPad, wantQ, wantM)
			gotQ, gotM := make([]int16, rows*kPad+8), make([]float32, rows)
			for i := range gotQ {
				gotQ[i] = tileGuard
			}
			quantTileAsm(x, k, kPad, gotQ[:rows*kPad], gotM)
			sameBits32(t, "rowMax", gotM, wantM)
			for i := range wantQ {
				if gotQ[i] != wantQ[i] {
					t.Fatalf("rows=%d k=%d qa[%d,%d]: asm %d, go %d", rows, k, i/kPad, i%kPad, gotQ[i], wantQ[i])
				}
			}
			for _, v := range gotQ[rows*kPad:] {
				if v != tileGuard {
					t.Fatalf("rows=%d k=%d: quantize wrote past the tile", rows, k)
				}
			}

			n := k // the output widths take the same tail shapes
			nPad := (n + int8NPadAlign - 1) &^ (int8NPadAlign - 1)
			acc := make([]int32, rows*nPad)
			for i := range acc {
				acc[i] = int32(rng.Intn(1<<20) - 1<<19)
			}
			scales := randSlice32(rng, n, 0.01)
			for _, bias := range [][]float32{nil, randSlice32(rng, n, 1)} {
				want := make([]float32, rows*n)
				dequantTileGo(acc, nPad, wantM, scales, bias, want)
				got := make([]float32, rows*n+8)
				for i := range got {
					got[i] = tileGuard
				}
				dequantTileAsm(acc, nPad, wantM, scales, bias, got[:rows*n])
				sameBits32(t, "dequant", got, want)
				for _, v := range got[rows*n:] {
					if v != tileGuard {
						t.Fatalf("rows=%d n=%d: dequantize wrote past the tile", rows, n)
					}
				}
			}
		}
	}
}

// TestAddLayerNormKernelMatchesGo pins addLayerNormRowAsm to its Go
// mirror bit for bit — the residual sum written back into x and the
// normalized row — with and without a residual, into a separate out and
// in place.
func TestAddLayerNormKernelMatchesGo(t *testing.T) {
	if !haveSIMD {
		t.Skip("no AVX2/FMA on this host")
	}
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{4, 8, 12, 48, 64, 96, 768} {
		gamma := randSlice32(rng, n, 2)
		beta := randSlice32(rng, n, 1)
		for _, withResid := range []bool{false, true} {
			for _, alias := range []bool{false, true} {
				x := randSlice32(rng, n, 3)
				for i := range x {
					x[i] += 0.5 // a nonzero mean exercises the centering
				}
				var resid []float32
				if withResid {
					resid = randSlice32(rng, n, 1)
				}
				xGo := append([]float32(nil), x...)
				xAsm := append([]float32(nil), x...)
				outGo, outAsm := xGo, xAsm
				if !alias {
					outGo, outAsm = make([]float32, n), make([]float32, n)
				}
				addLayerNormRowGo(xGo, resid, gamma, beta, 1e-5, outGo)
				addLayerNormRowAsm(xAsm, resid, gamma, beta, 1e-5, outAsm)
				sameBits32(t, "x", xAsm, xGo)
				sameBits32(t, "out", outAsm, outGo)
			}
		}
	}
}

// TestAttentionKernelMatchesGo runs packed batches of several sequences
// through attention32 twice — once per row kernel — and requires
// bitwise-equal outputs, across head widths that take every YMM/XMM strip
// and sequence lengths on both sides of each 8-lane pad edge.
func TestAttentionKernelMatchesGo(t *testing.T) {
	if !haveSIMD {
		t.Skip("no AVX2/FMA on this host")
	}
	rng := rand.New(rand.NewSource(13))
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 48}
	for _, d := range []int{4, 8, 12, 16, 20, 24, 28, 64} {
		for _, heads := range []int{1, 3} {
			hidden := d * heads
			for _, S := range lengths {
				// The sequence under test between two others, so row
				// offsets and the V stride are not trivial.
				lens := []int{lengths[rng.Intn(len(lengths))], S, lengths[rng.Intn(len(lengths))]}
				T, maxS := 0, 0
				for _, l := range lens {
					T += l
					maxS = max(maxS, l)
				}
				q := &Matrix32{Rows: T, Cols: hidden, Data: randSlice32(rng, T*hidden, 2)}
				k := &Matrix32{Rows: T, Cols: hidden, Data: randSlice32(rng, T*hidden, 2)}
				v := &Matrix32{Rows: T, Cols: hidden, Data: randSlice32(rng, T*hidden, 1)}
				scores := make([]float32, pad8(maxS))
				kt := make([]float32, pad8(maxS)*hidden)
				want := NewMatrix32(T, hidden)
				got := NewMatrix32(T, hidden)
				attention32(q, k, v, heads, lens, scores, kt, want, attnRowGo)
				attention32(q, k, v, heads, lens, scores, kt, got, attnRowAsm)
				sameBits32(t, "attention", got.Data, want.Data)
			}
		}
	}
}

// TestExpGeluVectorKernels pins the vector exp/GELU against the scalar
// fast paths within float32 noise.
func TestExpGeluVectorKernels(t *testing.T) {
	if !haveSIMD {
		t.Skip("no AVX2/FMA on this host")
	}
	rng := rand.New(rand.NewSource(9))
	v := make([]float32, 1024)
	for i := range v {
		v[i] = (rng.Float32()*2 - 1) * 20
	}
	shift := float32(3.7)
	got := append([]float32(nil), v...)
	expShiftAsm(got, shift)
	for i, x := range v {
		want := math.Exp(float64(x - shift))
		if rel := math.Abs(float64(got[i])-want) / want; rel > 1e-5 {
			t.Fatalf("vexp(%g-%g) = %g, want %g", x, shift, got[i], want)
		}
	}

	gelu := append([]float32(nil), v...)
	gelu32Asm(gelu)
	for i, x := range v {
		u := math.Sqrt(2/math.Pi) * (float64(x) + 0.044715*float64(x)*float64(x)*float64(x))
		want := 0.5 * float64(x) * (1 + math.Tanh(u))
		if diff := math.Abs(float64(gelu[i]) - want); diff > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("vgelu(%g) = %g, want %g", x, gelu[i], want)
		}
	}
}

// TestF64GemmKernelsMatchGo pins gemmF64Asm, behind InferLinearInto, to
// matMulRowsGo bit for bit: every row count through two groups of four
// plus a tail, K on both sides of the 4-k unroll and the bench widths, N
// through every 8-column strip and masked tail up to 17 plus the encoder
// widths and the 700-wide MLM head, with and without a bias, on plain
// inputs and on inputs laced with -0, ±Inf, NaN and subnormals, without
// writing past the output.
func TestF64GemmKernelsMatchGo(t *testing.T) {
	if !haveSIMD {
		t.Skip("no AVX2/FMA on this host")
	}
	rng := rand.New(rand.NewSource(30))
	ns := []int{48, 96, 700}
	for n := 1; n <= 17; n++ {
		ns = append(ns, n)
	}
	for rows := 1; rows <= 9; rows++ {
		for _, K := range []int{1, 3, 4, 5, 47, 48, 96, 97} {
			for _, N := range ns {
				for _, withBias := range []bool{false, true} {
					for _, every := range []int{0, 5} {
						checkLinearMatchesGo(t, rng, rows, K, N, withBias, every)
					}
				}
			}
		}
	}
}

// TestF64AttentionMatchesGo runs packed batches of several sequences
// through attentionF64Asm and attentionF64Go and requires the same bits,
// across head widths that take full and masked 4-lane strips and
// sequence lengths on both sides of each strip edge. Inputs come plain,
// laced with special values, and scaled up so that softmax weights
// underflow to exactly 0 against a V holding infinities: the kernel must
// skip those weights as the scalar loop does.
func TestF64AttentionMatchesGo(t *testing.T) {
	if !haveSIMD {
		t.Skip("no AVX2/FMA on this host")
	}
	rng := rand.New(rand.NewSource(31))
	lengths := []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 20}
	for _, d := range []int{1, 2, 3, 4, 5, 8, 12, 16, 20} {
		for _, heads := range []int{1, 3} {
			hidden := d * heads
			for _, S := range lengths {
				for _, input := range []struct {
					scale float64
					every int
				}{{1, 0}, {1, 7}, {40, 0}} {
					lens := []int{lengths[rng.Intn(len(lengths))], S, lengths[rng.Intn(len(lengths))]}
					T, maxS := 0, 0
					for _, l := range lens {
						T += l
						maxS = max(maxS, l)
					}
					q := FromSlice(T, hidden, randSpecial64(rng, T*hidden, input.scale, input.every))
					k := FromSlice(T, hidden, randSpecial64(rng, T*hidden, input.scale, input.every))
					v := FromSlice(T, hidden, randSpecial64(rng, T*hidden, 1, input.every))
					if input.scale > 1 {
						v.Data[rng.Intn(len(v.Data))] = math.Inf(1)
					}
					scores, kt := make([]float64, maxS*maxS), make([]float64, maxS*hidden)
					want := NewMatrix(T, hidden)
					got := guardedMatrix(T, hidden, 8)
					got.Fill(3) // the kernel overwrites every output
					attentionF64Go(q, k, v, heads, lens, scores, kt, want)
					attentionF64Asm(q, k, v, heads, lens, scores, kt, got)
					name := fmt.Sprintf("d=%d heads=%d lens=%v scale=%g every=%d", d, heads, lens, input.scale, input.every)
					sameBits64(t, name, got.Data, want.Data)
					checkGuard(t, name, got)
				}
			}
		}
	}
}

// TestF64ExpGELUKernelsMatchGo pins softmax's exp pass (expShiftSumAsm
// with its scalar fallback) and geluF64Asm to the scalar ports bit for
// bit, sum included: every length through ten 4-lane groups, so each
// masked tail runs, shifts of 0, −Inf and an element of the row, on plain
// inputs, on inputs wide enough to leave the kernel's [−708, 709] range
// and to take every tanh branch, and on inputs laced with the exp and
// GELU edge values. A row the kernel can take whole must not fall back.
func TestF64ExpGELUKernelsMatchGo(t *testing.T) {
	if !haveSIMD {
		t.Skip("no AVX2/FMA on this host")
	}
	rng := rand.New(rand.NewSource(33))
	for n := 1; n <= 40; n++ {
		for _, input := range []struct {
			scale float64
			every int
		}{{1, 0}, {3, 0}, {300, 0}, {1, 3}, {20, 2}} {
			src := randEdge64(rng, n, input.scale, input.every)
			for _, shift := range []float64{0, math.Inf(-1), src[rng.Intn(n)]} {
				checkExpGELUMatchesGo(t, src, shift)
			}
			if input.every == 0 && input.scale < 100 {
				top := math.Inf(-1)
				for _, v := range src {
					top = max(top, v)
				}
				dst := make([]float64, n)
				if done, _ := expShiftSumAsm(src, dst, top, 0); done != n {
					t.Fatalf("n=%d: the kernel declined a row it can take at element %d", n, done)
				}
			}
		}
	}
}
