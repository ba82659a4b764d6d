package radio

import (
	"math"
	"math/rand"
	"testing"
)

// sameAsPow reports whether DBToLinear(db) has the bits of the reference
// math.Pow(10, db/10).
func sameAsPow(t *testing.T, db float64) {
	t.Helper()
	got, want := DBToLinear(db), math.Pow(10, db/10)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("DBToLinear(%v) = %v (%#016x), math.Pow gives %v (%#016x)",
			db, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestDBToLinearSpecialValues checks the kernel against math.Pow on pow's
// special cases for a base of 10 and on the edges of float64's range.
func TestDBToLinearSpecialValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		db   float64
	}{
		{"+0", 0},
		{"-0", math.Copysign(0, -1)},
		{"+5 dB (y = 0.5)", 5},
		{"-5 dB (y = -0.5)", -5},
		{"10 dB (y = 1)", 10},
		{"-10 dB (y = -1)", -10},
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
		{"huge: y past 2^63", 1e20},
		{"huge negative: y past 2^63", -1e20},
		{"huge: y below 2^63, exponent guard", 4.8e19},
		{"huge negative: y below 2^63, exponent guard", -4.8e19},
		{"max float", math.MaxFloat64},
		{"min float", -math.MaxFloat64},
		{"largest finite result", 3082.5},
		{"first overflow", 3085},
		{"smallest normal result", -3076.5},
		{"subnormal result", -3080},
		{"deep subnormal result", -3230},
		{"smallest subnormal result", -3233},
		{"underflow to zero", -3245},
		{"smallest positive input", math.SmallestNonzeroFloat64},
		{"noise floor", -100},
		{"odd integer y", -130},
		{"fraction above one half", -147.3},
		{"last integer part of the table", 2550},
		{"last integer part of the table, negative", -2550},
		{"rounds up to the table's last integer part", 2545},
		{"rounds up past the table", 2556},
		{"rounds up past the table, negative", -2556},
		{"first integer part past the table", 2560},
		{"first integer part past the table, negative", -2563.3},
	} {
		t.Run(tc.name, func(t *testing.T) { sameAsPow(t, tc.db) })
	}
	if got := DBToLinear(-3080); got == 0 || got >= 0x1p-1022 {
		t.Errorf("DBToLinear(-3080) = %v, want a subnormal", got)
	}
	if got := DBToLinear(4.8e19); !math.IsInf(got, 1) {
		t.Errorf("DBToLinear(4.8e19) = %v, want +Inf", got)
	}
}

// TestDBToLinearSweep checks the kernel against math.Pow on the 0.1 dB
// grid over the simulator's range and across the squaring table's
// bound, where the integer part of db/10 reaches 2^8 and the kernel falls
// back to pow's loop and Ldexp; on random values in those ranges; and on
// random bit patterns.
func TestDBToLinearSweep(t *testing.T) {
	for i := -2000; i <= 600; i++ {
		sameAsPow(t, float64(i)/10)
	}
	for i := 25000; i <= 26000 && !t.Failed(); i++ {
		sameAsPow(t, float64(i)/10)
		sameAsPow(t, -float64(i)/10)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000 && !t.Failed(); i++ {
		sameAsPow(t, -200+260*rng.Float64())
		sameAsPow(t, -140+20*rng.NormFloat64())
		sameAsPow(t, 6000*(2*rng.Float64()-1))
		sameAsPow(t, math.Float64frombits(rng.Uint64()))
	}
}

// TestPow10Squarings pins what the kernel's power-of-two scaling rests
// on: every squaring's mantissa lies in [0.5, 1), and the exponents of
// all eight sum to 852, so for an integer part below 2^8 the scale
// 2^±852 at most is a normal float and the result stays normal.
func TestPow10Squarings(t *testing.T) {
	sum := 0
	for k, sq := range pow10Squarings {
		if sq.x1 < 0.5 || sq.x1 >= 1 {
			t.Errorf("squaring %d mantissa %v outside [0.5, 1)", k, sq.x1)
		}
		sum += sq.xe
	}
	if sum != 852 {
		t.Errorf("squaring exponents sum to %d, want 852", sum)
	}
}

// FuzzDBToLinear compares the kernel's bits with math.Pow(10, x/10), seeded
// with the dB values the simulator feeds it: RSRPs from about -150 to -40
// dBm, the -100 dBm noise floor and SINRs from -10 to 40 dB.
func FuzzDBToLinear(f *testing.F) {
	for _, db := range []float64{-150, -127.25, -104, -100, -87.3, -60.05, -40, -10, -0.1, 0, 3.3, 17.77, 40} {
		f.Add(db)
	}
	f.Fuzz(func(t *testing.T, db float64) { sameAsPow(t, db) })
}
