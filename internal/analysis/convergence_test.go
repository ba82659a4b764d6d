package analysis

import (
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
)

// synthetic replay: 50 ms ticks over `total`, predicting `typ` inside the
// given spans and HONone elsewhere.
func synthTicks(total time.Duration, typ cellular.HOType, spans [][2]time.Duration) []core.TickPrediction {
	var out []core.TickPrediction
	for t := time.Duration(0); t < total; t += 50 * time.Millisecond {
		p := core.TickPrediction{Time: t, Type: cellular.HONone}
		for _, sp := range spans {
			if t >= sp[0] && t < sp[1] {
				p.Type = typ
			}
		}
		out = append(out, p)
	}
	return out
}

func TestF1SeriesConvergenceShape(t *testing.T) {
	// One handover per 10 s bucket; predictions only cover the later ones —
	// the F1 series must go from 0 to 1 and TimeToThreshold must land at
	// the first covered bucket.
	const bucket = 10 * time.Second
	var hos []cellular.HandoverEvent
	var spans [][2]time.Duration
	for b := 0; b < 6; b++ {
		at := time.Duration(b)*bucket + 5*time.Second
		hos = append(hos, cellular.HandoverEvent{Time: at, Type: cellular.HOLTEH})
		if b >= 3 {
			spans = append(spans, [2]time.Duration{at - time.Second, at})
		}
	}
	ticks := synthTicks(60*time.Second, cellular.HOLTEH, spans)
	series := F1Series(ticks, hos, bucket, time.Second)
	if len(series) < 6 {
		t.Fatalf("series has %d buckets, want >= 6", len(series))
	}
	if series[0].F1 != 0 || series[0].Handovers != 1 {
		t.Errorf("bucket 0: F1=%.2f handovers=%d, want 0 and 1", series[0].F1, series[0].Handovers)
	}
	if series[4].F1 != 1 {
		t.Errorf("bucket 4: F1=%.2f, want 1", series[4].F1)
	}

	ttf, ok := TimeToThreshold(series, 0.9, 0)
	if !ok {
		t.Fatal("never reached threshold")
	}
	if want := 40 * time.Second; ttf != want {
		t.Errorf("time to threshold = %v, want %v (end of bucket 3)", ttf, want)
	}
	// Re-convergence measured from a later origin.
	re, ok := TimeToThreshold(series, 0.9, 30*time.Second)
	if !ok || re != 10*time.Second {
		t.Errorf("reconverge = %v ok=%v, want 10s", re, ok)
	}
	if fl, ok := Floor(series, 0); !ok || fl != 0 {
		t.Errorf("floor = %.2f ok=%v, want 0", fl, ok)
	}
	if fl, ok := Floor(series, 30*time.Second); !ok || fl != 1 {
		t.Errorf("post-convergence floor = %.2f ok=%v, want 1", fl, ok)
	}
	if tail, ok := Tail(series, 3); !ok || tail != 1 {
		t.Errorf("tail = %.2f ok=%v, want 1", tail, ok)
	}
}
