package tensor

import "math"

// The float64 path's own exp and tanh. They are ports of Go's portable
// math/exp.go and math/tanh.go, the code Go runs where it has no asm, with
// every product that feeds an add or a subtract rounded explicitly
// (float64(a*b)), so no compiler fuses the two into an FMA. math.Exp
// itself is not the same bit for bit on every host: on amd64 it runs an
// asm routine that takes an FMA path when the CPU has FMA, and math.Tanh
// calls it. Softmax (attention, SoftmaxRows, CrossEntropy) and
// GELU (the tape op and InferGELUInPlace) run on these ports, so the
// float64 forward and training give the same bits on every amd64 host.

// Constants of math/exp.go's exp and expmulti.
const (
	expLn2Hi     = 6.93147180369123816490e-01
	expLn2Lo     = 1.90821492927058770002e-10
	expLog2e     = 1.44269504088896338700e+00
	expOverflow  = 7.09782712893383973096e+02
	expUnderflow = -7.45133219101941108420e+02
	expNearZero  = 1.0 / (1 << 28)

	expP1 = 1.66666666666666657415e-01
	expP2 = -2.77777777770155933842e-03
	expP3 = 6.61375632143793436117e-05
	expP4 = -1.65339022054652515390e-06
	expP5 = 4.13813679705723846039e-08
)

// Constants of math/tanh.go: the rational approximation on |x| < 0.625
// and the saturation bound log(2¹²⁷)/2.
const (
	tanhP0 = -9.64399179425052238628e-1
	tanhP1 = -9.92877231001918586564e1
	tanhP2 = -1.61468768441708447952e3
	tanhQ0 = 1.12811678491632931402e2
	tanhQ1 = 2.23548839060100448583e3
	tanhQ2 = 4.84406305325125486048e3

	tanhMaxLog = 8.8029691931113054295988e+01
)

// Exp returns e**x with the same bits on every host: it is the float64
// path's exp (a port of Go's portable math/exp.go), within 2 ulp of
// math.Exp. Scorers that must reproduce the float64 path exactly use it
// instead of math.Exp.
func Exp(x float64) float64 { return expF64(x) }

// expF64 is math/exp.go's exp. Results in [2⁻¹⁰²², 2¹⁰²⁴) are scaled by
// adding k to the exponent bits, which is exact there and equals
// math.Ldexp; the AVX2 kernels do the same for x in [−708, 709].
func expF64(x float64) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > expOverflow:
		return math.Inf(1)
	case x < expUnderflow:
		return 0
	case -expNearZero < x && x < expNearZero:
		return 1 + x
	}
	// Reduce: x = k·ln2 + r with |r| ≤ ln2/2, r computed as hi − lo.
	var k int
	switch {
	case x < 0:
		k = int(float64(expLog2e*x) - 0.5)
	case x > 0:
		k = int(float64(expLog2e*x) + 0.5)
	}
	hi := x - float64(float64(k)*expLn2Hi)
	lo := float64(float64(k) * expLn2Lo)

	r := hi - lo
	t := float64(r * r)
	p := expP4 + float64(t*expP5)
	p = expP3 + float64(t*p)
	p = expP2 + float64(t*p)
	p = expP1 + float64(t*p)
	c := r - float64(t*p)
	y := 1 - ((lo - (r*c)/(2-c)) - hi)
	if k >= -1021 && k <= 1023 {
		// y is in [0.70, 1.42], so y·2^k stays normal: add k to the
		// exponent field.
		return math.Float64frombits(math.Float64bits(y) + uint64(k)<<52)
	}
	return math.Ldexp(y, k)
}

// tanhF64 is math/tanh.go's tanh on expF64.
func tanhF64(x float64) float64 {
	z := math.Abs(x)
	switch {
	case z > 0.5*tanhMaxLog:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		s := expF64(2 * z)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		s := float64(x * x)
		num := float64(tanhP0*s) + tanhP1
		num = float64(num*s) + tanhP2
		den := float64((s+tanhQ0)*s) + tanhQ1
		den = float64(den*s) + tanhQ2
		z = x + x*s*num/den
	}
	return z
}

// geluConst is sqrt(2/pi), used by the tanh approximation of GELU.
var geluConst = math.Sqrt(2 / math.Pi)

// geluF64 is the tanh-approximated GELU of the float64 path:
// 0.5·v·(1 + tanh(√(2/π)·(v + 0.044715·v³))).
func geluF64(v float64) float64 {
	u := float64(geluConst * (v + float64(0.044715*v*v*v)))
	return 0.5 * v * (1 + tanhF64(u))
}

// expShiftSumGo writes dst[j] = expF64(src[j] − shift) for every j and
// returns sum plus those values, added in j order. It is softmax's
// exp pass and the mirror expShiftSumAsm is tested against; dst may alias
// src.
func expShiftSumGo(src, dst []float64, shift, sum float64) float64 {
	for j, v := range src {
		e := expF64(v - shift)
		dst[j] = e
		sum += e
	}
	return sum
}

// geluRowGo writes out[i] = geluF64(x[i]); out may alias x. It is the
// mirror geluF64Asm is tested against.
func geluRowGo(x, out []float64) {
	for i, v := range x {
		out[i] = geluF64(v)
	}
}
