package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestMeanMedianBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Mean(xs) != 3 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Median(xs) != 3 {
		t.Errorf("Median = %v", Median(xs))
	}
	if Max(xs) != 5 {
		t.Error("Max")
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Median(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("empty inputs must yield NaN")
	}
}

func TestStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); math.Abs(got-2.138) > 0.01 {
		t.Errorf("StdDev = %v", got)
	}
	if !math.IsNaN(StdDev([]float64{1})) {
		t.Error("single-element stddev must be NaN")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Percentile(xs, 0); got != 10 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 40 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); math.Abs(got-25) > 1e-9 {
		t.Errorf("p50 = %v", got)
	}
}

// TestPercentileProperties: percentile is monotone in p and bounded by
// min/max, regardless of input order.
func TestPercentileProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 50
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				t.Fatalf("percentile not monotone at p=%v", p)
			}
			if v < slices.Min(xs)-1e-9 || v > Max(xs)+1e-9 {
				t.Fatalf("percentile %v outside data range", v)
			}
			prev = v
		}
	}
}

func TestRatio(t *testing.T) {
	if Ratio(4, 2) != 2 {
		t.Error("ratio")
	}
	if !math.IsNaN(Ratio(1, 0)) {
		t.Error("division by zero must be NaN")
	}
}
