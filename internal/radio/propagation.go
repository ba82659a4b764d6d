// Package radio implements the physical-layer substrate: a
// frequency-dependent log-distance propagation model with spatially
// correlated shadowing and small-scale fading, and SINR computation.
//
// The propagation model is the root cause of the paper's band findings:
// higher carrier frequencies attenuate faster, shrinking mmWave cells to a
// fraction of low-band coverage (§6.1) and driving up mmWave HO frequency
// (§5.1).
package radio

import (
	"math"
	"math/rand"

	"repro/internal/cellular"
)

// Physical constants for the propagation model.
const (
	speedOfLight = 2.998e8
	refDistanceM = 1.0 // reference distance d0 for log-distance model
)

// PropagationModel computes received signal quality from geometry. All
// methods are safe for concurrent use once constructed.
type PropagationModel struct {
	// PathLossExp is the path-loss exponent n; urban macro is ~3.0-3.7.
	PathLossExp float64
	// ShadowSigmaDB is the log-normal shadowing standard deviation.
	ShadowSigmaDB float64
	// ShadowCorrDistM is the Gudmundson decorrelation distance in metres.
	ShadowCorrDistM float64
	// FadingSigmaDB approximates small-scale fading as zero-mean Gaussian
	// jitter in dB on top of shadowing (a light-weight stand-in for
	// Rayleigh/Rician envelopes at 20 Hz sampling).
	FadingSigmaDB float64
	// NoiseFloorDBm is the thermal noise floor used for SINR.
	NoiseFloorDBm float64
	// MMWaveExtraLossDB adds blockage/oxygen-absorption penalty applied to
	// mmWave links beyond free-space frequency scaling.
	MMWaveExtraLossDB float64

	// noiseMW is DBToLinear(noiseAt), filled by DefaultModel. SINR uses it
	// only while NoiseFloorDBm still equals noiseAt, so an edit to the
	// exported field never reads a stale power.
	noiseAt, noiseMW float64
	noiseSet         bool
}

// DefaultModel returns the propagation model used throughout the
// reproduction, calibrated so that emergent cell coverage matches the
// paper's §6.1 diameters (1.4 km low, 0.73 km mid, 0.15 km mmWave) for the
// default topology parameters.
func DefaultModel() *PropagationModel {
	m := &PropagationModel{
		PathLossExp:       3.2,
		ShadowSigmaDB:     6.0,
		ShadowCorrDistM:   50.0,
		FadingSigmaDB:     1.5,
		NoiseFloorDBm:     -100.0,
		MMWaveExtraLossDB: 10.0,
	}
	m.noiseAt, m.noiseMW, m.noiseSet = m.NoiseFloorDBm, DBToLinear(m.NoiseFloorDBm), true
	return m
}

// noisePower returns the noise floor's linear power (mW).
func (m *PropagationModel) noisePower() float64 {
	if m.noiseSet && m.NoiseFloorDBm == m.noiseAt {
		return m.noiseMW
	}
	return DBToLinear(m.NoiseFloorDBm)
}

// FreeSpaceRefLossDB returns the free-space path loss at the reference
// distance for carrier frequency f (Hz): 20·log10(4πd0·f/c).
func FreeSpaceRefLossDB(freqHz float64) float64 {
	return 20 * math.Log10(4*math.Pi*refDistanceM*freqHz/speedOfLight)
}

// refLossDB caches FreeSpaceRefLossDB per band class. A band's center
// frequency is a constant, so recomputing the reference loss for every
// observation wasted a Log10 (plus the surrounding float ops) in the
// simulator's per-cell hot path.
var refLossDB = [...]float64{
	cellular.BandLow:    FreeSpaceRefLossDB(cellular.BandLow.CenterFrequencyHz()),
	cellular.BandMid:    FreeSpaceRefLossDB(cellular.BandMid.CenterFrequencyHz()),
	cellular.BandMMWave: FreeSpaceRefLossDB(cellular.BandMMWave.CenterFrequencyHz()),
}

// refLossFor returns the cached reference loss for known band classes,
// computing on the fly for out-of-range values.
func refLossFor(band cellular.Band) float64 {
	if band >= 0 && int(band) < len(refLossDB) {
		return refLossDB[band]
	}
	return FreeSpaceRefLossDB(band.CenterFrequencyHz())
}

// PathLossDB returns the deterministic (median) path loss in dB at distance
// d metres for the given band.
func (m *PropagationModel) PathLossDB(band cellular.Band, d float64) float64 {
	if d < refDistanceM {
		d = refDistanceM
	}
	pl := refLossFor(band) + 10*m.PathLossExp*math.Log10(d/refDistanceM)
	if band == cellular.BandMMWave {
		pl += m.MMWaveExtraLossDB
	}
	return pl
}

// MedianRSRP returns the median received power (dBm) at distance d metres
// from a cell transmitting at txPower dBm.
func (m *PropagationModel) MedianRSRP(band cellular.Band, txPowerDBm, d float64) float64 {
	return txPowerDBm - m.PathLossDB(band, d)
}

// ShadowField generates spatially correlated log-normal shadowing along a
// 1-D trajectory using the Gudmundson exponential-correlation model. Each
// cell gets an independent field; the UE samples it by travelled distance.
type ShadowField struct {
	sigma    float64
	corrDist float64
	rng      *rand.Rand
	step     *ShadowStep
	lastPos  float64
	lastVal  float64
	primed   bool
}

// ShadowStep holds the AR(1) coefficients of the last step a set of
// shadow fields took: rho = exp(−Δ/corrDist) and sqrt(1−rho²), keyed on
// the bits of Δ and corrDist. Every cell a drive observed on the previous
// tick steps by the same Δ, so the drive's fields share one ShadowStep and
// pay one Exp and one Sqrt per distinct step instead of one per cell. The
// zero value is empty. A ShadowStep is not safe for concurrent use.
type ShadowStep struct {
	delta, corrDist uint64
	rho, k          float64
	set             bool
}

// coeffs returns rho and sqrt(1−rho²) for a step of delta metres.
func (st *ShadowStep) coeffs(delta, corrDist float64) (rho, k float64) {
	if !st.set || math.Float64bits(delta) != st.delta || math.Float64bits(corrDist) != st.corrDist {
		st.rho = math.Exp(-delta / corrDist)
		st.k = math.Sqrt(1 - st.rho*st.rho)
		st.delta, st.corrDist, st.set = math.Float64bits(delta), math.Float64bits(corrDist), true
	}
	return st.rho, st.k
}

// NewShadowField creates a correlated shadowing process with the model's
// parameters, using rng for the innovation sequence and step for its
// coefficients. Fields stepped by one caller (one drive's cells) share one
// step.
func (m *PropagationModel) NewShadowField(rng *rand.Rand, step *ShadowStep) *ShadowField {
	return &ShadowField{sigma: m.ShadowSigmaDB, corrDist: m.ShadowCorrDistM, rng: rng, step: step}
}

// At returns the shadowing value (dB) at odometer position pos metres.
// Positions must be non-decreasing across calls; the process is an AR(1) in
// travelled distance with correlation exp(-Δ/corrDist). Each call draws
// one normal.
func (f *ShadowField) At(pos float64) float64 {
	if !f.primed {
		f.primed = true
		f.lastPos = pos
		f.lastVal = f.rng.NormFloat64() * f.sigma
		return f.lastVal
	}
	delta := pos - f.lastPos
	if delta < 0 {
		delta = 0
	}
	rho, k := f.step.coeffs(delta, f.corrDist)
	f.lastVal = rho*f.lastVal + k*f.rng.NormFloat64()*f.sigma
	f.lastPos = pos
	return f.lastVal
}

// Fading returns one small-scale fading sample in dB.
func (m *PropagationModel) Fading(rng *rand.Rand) float64 {
	return rng.NormFloat64() * m.FadingSigmaDB
}

// RSRQFromRSRP derives a plausible RSRQ (dB) from RSRP and the count of
// overlapping same-frequency cells; more interferers depress RSRQ.
func RSRQFromRSRP(rsrp float64, interferers int) float64 {
	// RSRQ in LTE spans roughly [-19.5, -3]; map signal strength and
	// interference load into that range.
	q := -3.0 - float64(interferers)*1.5 - (rsrpRef-rsrp)*0.08
	if q < -19.5 {
		q = -19.5
	}
	if q > -3 {
		q = -3
	}
	return q
}

const rsrpRef = -80.0

// SINR computes the signal-to-interference-plus-noise ratio (dB) given the
// serving RSRP (dBm) and the RSRPs of co-channel interferers (dBm).
func (m *PropagationModel) SINR(servingRSRP float64, interferers []float64) float64 {
	denom := m.noisePower()
	for _, i := range interferers {
		denom += DBToLinear(i)
	}
	sig := DBToLinear(servingRSRP)
	return 10 * math.Log10(sig/denom)
}

// ln10 and frac10·2^exp10 are pow's view of the base 10: Log(10), and
// Frexp(10) = 0.625·2⁴, computed by the functions pow calls on every use.
var (
	ln10          = math.Log(10)
	frac10, exp10 = math.Frexp(10)
)

// pow10Bits is the number of low integer-part bits pow10Squarings covers:
// every dB value the simulator converts, -150 to +40, has an integer part
// of y = db/10 below 2⁸.
const pow10Bits = 8

// pow10Squarings holds pow's successive squarings of 10 = x1·2^xe for bit k
// of the exponent's integer part: 10^(2^k) as pow's loop reaches it, with
// x1 renormalised into [0.5, 1) at each step. They are built once, by the
// loop's own steps, so reading them gives that loop's bits. Their
// exponents stay far below the loop's overflow guard (10^128 is 2^426).
var pow10Squarings = func() (t [pow10Bits]struct {
	x1 float64
	xe int
}) {
	x1, xe := frac10, exp10
	for k := range t {
		t[k].x1, t[k].xe = x1, xe
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	return t
}()

// DBToLinear returns 10^(db/10), the linear value of a dB quantity, bit for
// bit equal to math.Pow(10, db/10) wherever math.Pow is Go's pure-Go pow
// (every port but s390x). It runs pow's own steps for a base of 10, with
// the base's Log and Frexp taken once above instead of on every call: the
// special cases, Modf of the exponent, Exp of its fraction times ln 10,
// square-and-multiply over the mantissa and exponent of 10 for its integer
// part, and Ldexp. An integer part below 2⁸ reads its squarings from
// pow10Squarings and scales by a power of two, which is what Ldexp does
// whenever the result is normal, as it then always is.
func DBToLinear(db float64) float64 {
	y := db / 10
	switch {
	case y == 0:
		return 1
	case y == 1:
		return 10
	case math.IsNaN(y):
		return math.NaN()
	case math.IsInf(y, 1):
		return math.Inf(1)
	case math.IsInf(y, -1):
		return 0
	case y == 0.5:
		return math.Sqrt(10)
	case y == -0.5:
		return 1 / math.Sqrt(10)
	}
	yi, yf := math.Modf(math.Abs(y))
	if yi >= 1<<63 {
		// An even integer this large overflows (or, negated, underflows).
		if y > 0 {
			return math.Inf(1)
		}
		return 0
	}

	// ans = a1 * 2**ae, times 10**yf first.
	a1 := 1.0
	ae := 0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = math.Exp(yf * ln10)
	}

	if yi < 1<<pow10Bits {
		// a1 is 10**yf in [10^-0.5, 10^0.5] times at most pow10Bits
		// squarings in [0.5, 1), so a1 and its reciprocal lie in
		// [2^-10, 2^10], and |ae| is at most 852, the sum of all eight
		// squarings' exponents (10^255 = x·2^852).
		// a1·2^ae is then normal, and multiplying by the power of two is
		// exact, as Ldexp is.
		for k, i := 0, int(yi); i != 0; k, i = k+1, i>>1 {
			if i&1 == 1 {
				a1 *= pow10Squarings[k].x1
				ae += pow10Squarings[k].xe
			}
		}
		if y < 0 {
			a1 = 1 / a1
			ae = -ae
		}
		return a1 * math.Float64frombits(uint64(1023+ae)<<52)
	}

	// ans *= 10**yi by successive squarings of 10 = x1 * 2**xe.
	x1, xe := frac10, exp10
	for i := int64(yi); i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// xe would overflow the shift; ae += xe already bounds the
			// result out of range, so Ldexp returns 0 or Inf.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}

	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}
