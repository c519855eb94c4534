package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// ulpDiff is the distance in units in the last place between two finite
// float64s of the same sign.
func ulpDiff(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// TestExpTanhF64 checks the ports against math.Exp and math.Tanh over
// dense sweeps, within 2 ulp (two different sub-ulp approximations cannot
// agree closer), and pins their special cases and edges to fixed values.
// The sweep stops below 709.43: amd64's math.Exp returns +Inf from there,
// while exp is finite up to 709.78.
func TestExpTanhF64(t *testing.T) {
	const maxULP = 2
	check := func(name string, f, ref func(float64) float64, x float64) {
		t.Helper()
		got, want := f(x), ref(x)
		if math.Signbit(got) != math.Signbit(want) || ulpDiff(got, want) > maxULP {
			t.Fatalf("%s(%v) = %v, math gives %v (%d ulp)", name, x, got, want, ulpDiff(got, want))
		}
	}
	for x := -745.0; x < 709.43; x += 1.0 / 128 {
		check("exp", expF64, math.Exp, x)
	}
	for x := -50.0; x < 50; x += 1.0 / 1024 {
		check("tanh", tanhF64, math.Tanh, x)
	}
	// Logarithmic sweeps through the small-argument branches: exp's 1+x
	// below 2⁻²⁸ and tanh's rational approximation below 0.625.
	for x := math.Ldexp(1, -60); x < 1; x *= 1.001 {
		for _, v := range []float64{x, -x} {
			check("exp", expF64, math.Exp, v)
			check("tanh", tanhF64, math.Tanh, v)
		}
	}

	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	for _, c := range []struct {
		name     string
		f        func(float64) float64
		x        float64
		wantBits uint64
	}{
		{"exp", expF64, 0, 0x3ff0000000000000},
		{"exp", expF64, negZero, 0x3ff0000000000000},
		{"exp", expF64, inf, 0x7ff0000000000000},
		{"exp", expF64, -inf, 0},
		{"exp", expF64, 1, 0x4005bf0a8b145769},           // e
		{"exp", expF64, 0x1p-29, 0x3ff0000000800000},     // 1+x
		{"exp", expF64, 709.78, 0x7fefe9ce5c4c52b4},      // finite past amd64's cut-off
		{"exp", expF64, expOverflow, 0x7fefffffffffff2a}, // the largest finite result
		{"exp", expF64, math.Nextafter(expOverflow, inf), 0x7ff0000000000000},
		{"exp", expF64, -708.5, 0x000e6cf6d08897ac},            // subnormal
		{"exp", expF64, -740, 0x55},                            // subnormal
		{"exp", expF64, expUnderflow, 0x1},                     // the smallest subnormal
		{"exp", expF64, math.Nextafter(expUnderflow, -inf), 0}, // underflow
		{"tanh", tanhF64, 0, 0},
		{"tanh", tanhF64, negZero, 0x8000000000000000},
		{"tanh", tanhF64, inf, 0x3ff0000000000000},
		{"tanh", tanhF64, -inf, 0xbff0000000000000},
		{"tanh", tanhF64, 5e-324, 0x1}, // subnormal
		{"tanh", tanhF64, -5e-324, 0x8000000000000001},
		{"tanh", tanhF64, 0.625, 0x3fe1bf47eabb8f96},            // exp branch's first input
		{"tanh", tanhF64, 0.5 * tanhMaxLog, 0x3ff0000000000000}, // last exp-branch input
		{"tanh", tanhF64, -0.5 * tanhMaxLog, 0xbff0000000000000},
	} {
		if got := c.f(c.x); math.Float64bits(got) != c.wantBits {
			t.Errorf("%s(%v) = %v (%#016x), want %v (%#016x)", c.name, c.x, got, math.Float64bits(got),
				math.Float64frombits(c.wantBits), c.wantBits)
		}
	}
	if !math.IsNaN(expF64(nan)) || !math.IsNaN(tanhF64(nan)) {
		t.Errorf("exp(NaN) = %v, tanh(NaN) = %v, want NaN", expF64(nan), tanhF64(nan))
	}
}

// geluInputFor returns the smallest v ≥ 0 whose GELU argument
// √(2/π)·(v + 0.044715·v³) is at least u, by bisection over the float64s.
func geluInputFor(u float64) float64 {
	arg := func(v float64) float64 { return float64(geluConst * (v + float64(0.044715*v*v*v))) }
	lo, hi := 0.0, 100.0
	for {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			return hi
		}
		if arg(mid) >= u {
			hi = mid
		} else {
			lo = mid
		}
	}
}

// expGELUEdges are the inputs where the exp and GELU kernels change
// course, on both sides: ±0, ±Inf, NaN, subnormals, the kernel's ±708/709
// fallback bounds and finite results just past them, exp's overflow,
// underflow and 2⁻²⁸ bounds, 2⁻²⁹+2⁻⁵³ (1+x is a tie there, which the
// polynomial would break the other way), and the
// GELU inputs whose tanh argument sits on the 0.625 and MAXLOG/2 branch
// edges.
var expGELUEdges = func() []float64 {
	edges := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 2.2250738585072009e-308, 709.5, -708.5, 0x1p-29 + 0x1p-53}
	around := []float64{708, 709, expOverflow, expUnderflow, expNearZero, 0.625, 0.5 * tanhMaxLog,
		geluInputFor(0.625), geluInputFor(0.5 * tanhMaxLog)}
	for _, x := range around {
		for _, y := range []float64{x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1))} {
			edges = append(edges, y, -y)
		}
	}
	return edges
}()

// randEdge64 draws n values from N(0, scale²), replacing about one in
// every `every` (every ≤ 0: none) with an expGELUEdges entry.
func randEdge64(rng *rand.Rand, n int, scale float64, every int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if every > 0 && rng.Intn(every) == 0 {
			out[i] = expGELUEdges[rng.Intn(len(expGELUEdges))]
			continue
		}
		out[i] = rng.NormFloat64() * scale
	}
	return out
}

// guarded returns a copy of v whose backing array carries guard values
// past its end.
func guarded(v []float64) []float64 {
	buf := make([]float64, len(v)+4)
	copy(buf, v)
	for i := len(v); i < len(buf); i++ {
		buf[i] = guardF64
	}
	return buf[:len(v)]
}

// checkGuard64 fails if anything past v's end lost its guard value.
func checkGuard64(t *testing.T, name string, v []float64) {
	t.Helper()
	checkGuard(t, name, &Matrix{Rows: 1, Cols: len(v), Data: v})
}

// checkExpGELUMatchesGo runs softmax's exp pass and the GELU row on src
// through the dispatched kernels, into separate outputs and in place, and
// requires the bits of expShiftSumGo and geluRowGo.
func checkExpGELUMatchesGo(t *testing.T, src []float64, shift float64) {
	t.Helper()
	name := fmt.Sprintf("n=%d shift=%v", len(src), shift)
	want := make([]float64, len(src))
	wantSum := expShiftSumGo(src, want, shift, 0)
	got := guarded(make([]float64, len(src)))
	gotSum := expShiftSum(src, got, shift)
	sameBits64(t, "exp "+name, got, want)
	sameBits64(t, "exp sum "+name, []float64{gotSum}, []float64{wantSum})
	checkGuard64(t, "exp "+name, got)
	inPlace := guarded(src)
	expShiftSum(inPlace, inPlace, shift)
	sameBits64(t, "exp in place "+name, inPlace, want)

	geluRowGo(src, want)
	got = guarded(make([]float64, len(src)))
	geluRow(src, got)
	sameBits64(t, "gelu "+name, got, want)
	checkGuard64(t, "gelu "+name, got)
	inPlace = guarded(src)
	geluRow(inPlace, inPlace)
	sameBits64(t, "gelu in place "+name, inPlace, want)
}

// FuzzSoftmaxGELUF64 checks softmax's exp pass and the GELU row (the AVX2
// kernels where the host has them) bit for bit against the scalar ports
// over fuzzed lengths (1–80), seeds, scales, densities of edge values and
// shifts (0, −Inf, or an element of the row).
func FuzzSoftmaxGELUF64(f *testing.F) {
	f.Add(uint8(20), int64(1), 3.0, uint8(0), uint8(2))
	f.Add(uint8(7), int64(2), 400.0, uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, n8 uint8, seed int64, scale float64, every, shift8 uint8) {
		rng := rand.New(rand.NewSource(seed))
		src := randEdge64(rng, 1+int(n8)%80, scale, int(every))
		shift := 0.0
		switch shift8 % 3 {
		case 1:
			shift = math.Inf(-1)
		case 2:
			shift = src[int(shift8)%len(src)]
		}
		checkExpGELUMatchesGo(t, src, shift)
	})
}

// BenchmarkGELUF64 runs the float64 GELU at the default encoder's FFN
// shape (48→96) over 512 token rows and reports ns per element.
func BenchmarkGELUF64(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const rows, width = 512, 96
	src := randMatrix(rng, rows, width)
	x := NewMatrix(rows, width)
	for b.Loop() {
		copy(x.Data, src.Data)
		InferGELUInPlace(x)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*width), "ns/element")
}
