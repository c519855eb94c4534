package tensor

import (
	"fmt"
	"math"
	"math/bits"
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

// withF64Backends calls fn once per float64 kernel tier this host can
// run (pure Go, AVX2, AVX-512), with the dispatch gates set to select it,
// and restores the gates afterwards.
func withF64Backends(fn func(tier string)) {
	simd, avx512 := haveSIMD, haveAVX512
	defer func() { haveSIMD, haveAVX512 = simd, avx512 }()
	haveSIMD, haveAVX512 = false, false
	fn("go")
	if simd {
		haveSIMD = true
		fn("avx2")
	}
	if avx512 {
		haveAVX512 = true
		fn("avx512")
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

// TestF64GemmKernelsMatchGo pins the GEMM behind InferLinearInto to
// matMulRowsGo bit for bit on every tier: every row count through two
// groups of four plus a tail, K on both sides of the 4-k unroll and the
// bench widths, N through every 8- and 16-column strip and masked tail up
// to 33 plus the encoder widths and the 700-wide MLM head, with and
// without a bias, on plain inputs and on inputs laced with -0, ±Inf, NaN
// and subnormals, without writing past the output.
func TestF64GemmKernelsMatchGo(t *testing.T) {
	ns := []int{48, 96, 700}
	for n := 1; n <= 33; n++ {
		ns = append(ns, n)
	}
	withF64Backends(func(tier string) {
		t.Run(tier, func(t *testing.T) {
			rng := rand.New(rand.NewSource(30))
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
		})
	})
}

// TestF64AttentionMatchesGo runs packed batches of several sequences
// through the dispatched attention and attentionF64Go on every tier and
// requires the same bits, across head widths that take full and partial
// AV column blocks and sequence lengths on both sides of each lane-group
// edge (4 lanes on AVX2, 8 on AVX-512) up to the default encoder's
// MaxSeqLen of 64. Inputs come plain, laced with special values, and
// scaled up so that most rows' exp arguments leave [−708, 709] and their
// weights underflow to 0 against a V holding infinities: the kernel must
// hand those rows to the scalar port, which skips the zero weights. One
// more sequence scales up a single query row, so that only that row
// falls back while the rest of its lane group stays on the kernel.
// The whole scores scratch must match too, every head's post-softmax
// block at [h·S², (h+1)·S²): the Attention op's backward reads it.
func TestF64AttentionMatchesGo(t *testing.T) {
	withF64Backends(func(tier string) {
		t.Run(tier, testF64AttentionMatchesGo)
	})
}

func testF64AttentionMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lengths := []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 20, 31, 32, 33, 48, 64}
	for _, d := range []int{1, 2, 3, 4, 5, 8, 12, 16, 20} {
		for _, heads := range []int{1, 3} {
			hidden := d * heads
			for _, S := range lengths {
				for _, input := range []struct {
					scale float64
					every int
				}{{1, 0}, {1, 7}, {40, 0}} {
					lens := []int{lengths[rng.Intn(len(lengths))], S, lengths[rng.Intn(len(lengths))]}
					T := lens[0] + lens[1] + lens[2]
					q := FromSlice(T, hidden, randSpecial64(rng, T*hidden, input.scale, input.every))
					k := FromSlice(T, hidden, randSpecial64(rng, T*hidden, input.scale, input.every))
					v := FromSlice(T, hidden, randSpecial64(rng, T*hidden, 1, input.every))
					if input.scale > 1 {
						v.Data[rng.Intn(len(v.Data))] = math.Inf(1)
					}
					name := fmt.Sprintf("d=%d heads=%d lens=%v scale=%g every=%d", d, heads, lens, input.scale, input.every)
					checkAttentionMatchesGo(t, name, q, k, v, heads, lens)
				}
			}
		}
	}

	// Row 5 of a 20-row sequence, scaled by 10⁴: its scores spread far
	// past 708, no other row's do.
	const S, hidden = 20, 12
	q := FromSlice(S, hidden, randSpecial64(rng, S*hidden, 1, 0))
	k := FromSlice(S, hidden, randSpecial64(rng, S*hidden, 1, 0))
	v := FromSlice(S, hidden, randSpecial64(rng, S*hidden, 1, 0))
	for c := range q.Row(5) {
		q.Row(5)[c] *= 1e4
	}
	checkAttentionMatchesGo(t, "one fallback row", q, k, v, 1, []int{S})
	if haveSIMD {
		kernel, _ := attnKernel()
		work := make([]float64, AttentionWorkLen(S, hidden))
		stop, bad := kernel(q.Data, k.Data, v.Data, make([]float64, S*S), NewMatrix(S, hidden).Data,
			work, S, hidden, hidden, 1/math.Sqrt(hidden), 0)
		if stop+bits.TrailingZeros(uint(bad)) != 5 || bad&(bad-1) != 0 {
			t.Fatalf("kernel declined rows %#b of the group at row %d, want row 5 alone", bad, stop)
		}
	}
}

// checkAttentionMatchesGo runs one packed batch through the dispatched
// attention and attentionF64Go and requires the same bits in the output
// and in every head's scores block, and nothing written past either.
func checkAttentionMatchesGo(t *testing.T, name string, q, k, v *Matrix, heads int, lens []int) {
	t.Helper()
	maxS := 0
	for _, l := range lens {
		maxS = max(maxS, l)
	}
	hidden := q.Cols
	work := make([]float64, AttentionWorkLen(maxS, hidden))
	wantScores := make([]float64, heads*maxS*maxS)
	gotScores := guarded(make([]float64, heads*maxS*maxS))
	want := NewMatrix(q.Rows, hidden)
	got := guardedMatrix(q.Rows, hidden, 8)
	got.Fill(3) // the kernel overwrites every output
	attentionF64Go(q, k, v, heads, lens, wantScores, work, want)
	attentionF64(q, k, v, heads, lens, gotScores, work, got)
	sameBits64(t, name, got.Data, want.Data)
	sameBits64(t, "scores "+name, gotScores, wantScores)
	checkGuard(t, name, got)
	checkGuard64(t, "scores "+name, gotScores)
}

// FuzzAttentionF64 checks the float64 attention on the host's widest
// kernel bit for bit against attentionF64Go over fuzzed head counts
// (1–4), head widths (1–24), one to three sequences of 1–64 rows, input
// scales, densities of special values (NaN, ±Inf, −0, subnormals) and one
// query row scaled by up to 2⁶³, which sends that row, or every row when
// the scale is large, to the scalar fallback.
func FuzzAttentionF64(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(12), uint8(20), uint8(0), uint8(0), 1.0, uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(5), uint8(9), uint8(63), uint8(33), 3.0, uint8(5), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, heads8, d8, n0, n1, n2 uint8, scale float64, every, big uint8) {
		rng := rand.New(rand.NewSource(seed))
		heads, d := 1+int(heads8)%4, 1+int(d8)%24
		hidden := heads * d
		lens := []int{1 + int(n0)%64}
		for _, n := range []uint8{n1, n2} {
			if n != 0 {
				lens = append(lens, 1+int(n)%64)
			}
		}
		T := 0
		for _, l := range lens {
			T += l
		}
		q := FromSlice(T, hidden, randSpecial64(rng, T*hidden, scale, int(every)))
		k := FromSlice(T, hidden, randSpecial64(rng, T*hidden, scale, int(every)))
		v := FromSlice(T, hidden, randSpecial64(rng, T*hidden, 1, int(every)))
		if big != 0 {
			row := q.Row(rng.Intn(T))
			for c := range row {
				row[c] *= math.Ldexp(1, int(big)%64)
			}
		}
		name := fmt.Sprintf("heads=%d d=%d lens=%v scale=%g every=%d big=%d", heads, d, lens, scale, every, big)
		checkAttentionMatchesGo(t, name, q, k, v, heads, lens)
	})
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
