package abr

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/emu"
)

func TestHarmonicMean(t *testing.T) {
	h := NewHarmonicMean(3)
	if h.Predict() != 0 {
		t.Error("empty predictor must return 0")
	}
	h.Observe(10)
	h.Observe(40)
	// Harmonic mean of {10, 40} = 16.
	if got := h.Predict(); math.Abs(got-16) > 1e-9 {
		t.Errorf("Predict = %v", got)
	}
	// Window slides.
	h.Observe(40)
	h.Observe(40)
	h.Observe(40)
	if got := h.Predict(); math.Abs(got-40) > 1e-9 {
		t.Errorf("after sliding: %v", got)
	}
	// Non-positive observations are floored, not fatal.
	h.Observe(0)
	if h.Predict() <= 0 {
		t.Error("prediction must stay positive")
	}
}

// TestHarmonicMeanBounds is a property test: the prediction always lies
// within the min/max of the retained window (harmonic mean is a mean).
func TestHarmonicMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		h := NewHarmonicMean(5)
		var win []float64
		for _, v := range raw {
			v = math.Abs(v)
			if v < 0.01 || v > 1e6 || math.IsInf(v, 0) || math.IsNaN(v) {
				v = math.Mod(math.Abs(v), 1e6) + 0.01 // keep inputs in a sane Mbps domain
			}
			h.Observe(v)
			win = append(win, v)
			if len(win) > 5 {
				win = win[1:]
			}
			lo, hi := win[0], win[0]
			for _, w := range win {
				lo = math.Min(lo, w)
				hi = math.Max(hi, w)
			}
			p := h.Predict()
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestErrorTracker(t *testing.T) {
	e := NewErrorTracker(3)
	if e.MaxError() != 0 {
		t.Error("empty tracker")
	}
	e.Record(150, 100) // 50% error
	e.Record(100, 100) // 0
	if got := e.MaxError(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("MaxError = %v", got)
	}
	e.Record(0, 0) // ignored (actual 0)
	if got := e.MaxError(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("MaxError after ignore = %v", got)
	}
}

func levels() []float64 { return []float64{4, 10, 25, 60, 140, 320} }

func TestRBChoosesUnderPrediction(t *testing.T) {
	alg := RB{}
	for _, c := range []struct {
		pred float64
		want int
	}{{3, 0}, {12, 1}, {26, 2}, {1000, 5}} {
		got := alg.Choose(State{PredictedMbps: c.pred}, levels(), 2*time.Second)
		if got != c.want {
			t.Errorf("RB(%v) = %d, want %d", c.pred, got, c.want)
		}
	}
}

func TestFESTIVEGradualSwitching(t *testing.T) {
	alg := FESTIVE{}
	st := State{PredictedMbps: 1000, LastLevel: 1}
	if got := alg.Choose(st, levels(), 2*time.Second); got != 2 {
		t.Errorf("FESTIVE must climb one level at a time, got %d", got)
	}
	st = State{PredictedMbps: 1, LastLevel: 3}
	if got := alg.Choose(st, levels(), 2*time.Second); got != 2 {
		t.Errorf("FESTIVE must descend one level at a time, got %d", got)
	}
	st = State{PredictedMbps: 1000, LastLevel: -1}
	if got := alg.Choose(st, levels(), 2*time.Second); got != 5 {
		t.Errorf("first chunk jumps to target, got %d", got)
	}
}

func TestMPCAvoidsRebuffering(t *testing.T) {
	alg := MPC{}
	// Tiny buffer and tight throughput: MPC must not pick a level whose
	// download outruns the buffer.
	st := State{BufferS: 1, LastLevel: 2, PredictedMbps: 30, ChunksLeft: 10}
	got := alg.Choose(st, levels(), 2*time.Second)
	// Level "got" downloads in levels[got]*2/30 s; it must fit the 1 s
	// buffer with the QoE weights given.
	dl := levels()[got] * 2 / 30
	if dl > 2.0 {
		t.Errorf("MPC chose level %d with %vs download on a 1s buffer", got, dl)
	}
	// With a huge buffer and bandwidth, MPC goes high.
	st = State{BufferS: 25, LastLevel: 4, PredictedMbps: 1000, ChunksLeft: 10}
	if got := alg.Choose(st, levels(), 2*time.Second); got < 4 {
		t.Errorf("rich conditions chose level %d", got)
	}
}

func TestMPCRobustDiscounts(t *testing.T) {
	plain := MPC{}
	robust := MPC{Robust: true}
	st := State{BufferS: 4, LastLevel: 3, PredictedMbps: 100, MaxError: 1.0, ChunksLeft: 10}
	p := plain.Choose(st, levels(), 2*time.Second)
	r := robust.Choose(st, levels(), 2*time.Second)
	if r > p {
		t.Errorf("robustMPC (%d) must not exceed fastMPC (%d) under high error", r, p)
	}
	if plain.Name() != "fastMPC" || robust.Name() != "robustMPC" {
		t.Error("names")
	}
}

func TestPlayVoDBasics(t *testing.T) {
	tr, err := emu.NewBandwidthTrace([]float64{80}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	video := Panoramic16K()
	res, err := PlayVoD(video, emu.NewLink(tr, 40*time.Millisecond), MPC{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgBitrateMbps <= 0 || res.AvgBitrateMbps > 320 {
		t.Errorf("avg bitrate %v", res.AvgBitrateMbps)
	}
	if res.NormalizedBitrate <= 0 || res.NormalizedBitrate > 1 {
		t.Errorf("normalized bitrate %v", res.NormalizedBitrate)
	}
	if res.StallPct < 0 || res.StallPct > 100 {
		t.Errorf("stall %v%%", res.StallPct)
	}
	// 80 Mbps steady: the player should mostly sit at level 60 Mbps with
	// minimal stall.
	if res.StallS > 5 {
		t.Errorf("steady link stalled %vs", res.StallS)
	}
	if _, err := PlayVoD(Video{}, emu.NewLink(tr, 0), MPC{}, nil); err == nil {
		t.Error("invalid video accepted")
	}
}

func TestPlayVoDScoreDownshiftAvoidsStall(t *testing.T) {
	// Capacity collapses at t=60 s; an oracle that downshifts ahead of the
	// drop should not stall more than the oblivious player.
	mbps := make([]float64, 1200)
	for i := range mbps {
		if i < 600 {
			mbps[i] = 150
		} else {
			mbps[i] = 12
		}
	}
	tr, _ := emu.NewBandwidthTrace(mbps, 100*time.Millisecond)
	video := Panoramic16K()

	run := func(scoreAt ScoreAtFunc) PlayResult {
		res, err := PlayVoD(video, emu.NewLink(tr, 40*time.Millisecond), MPC{}, scoreAt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	oblivious := run(nil)
	oracle := run(func(now time.Duration) ChunkContext {
		if now > 55*time.Second && now < 70*time.Second {
			return ChunkContext{Score: 1.0 / 7, HasHO: true}
		}
		return ChunkContext{Score: 1}
	})
	if oracle.StallS > oblivious.StallS+0.5 {
		t.Errorf("oracle stalled more: %v vs %v", oracle.StallS, oblivious.StallS)
	}
}

func TestPlayVolumetricBasics(t *testing.T) {
	tr, _ := emu.NewBandwidthTrace([]float64{120}, 100*time.Millisecond)
	video := ViVoVideo()
	res, err := PlayVolumetric(video, emu.NewLink(tr, 20*time.Millisecond), ViVoRate{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLevelBitrate < video.Levels[0] || res.AvgLevelBitrate > video.Levels[len(video.Levels)-1] {
		t.Errorf("avg level %v outside ladder", res.AvgLevelBitrate)
	}
	// 120 Mbps link: ViVo targets 0.8×96 — should reach level 77 with few
	// stalls.
	if res.StallPct > 10 {
		t.Errorf("steady link stalled %v%%", res.StallPct)
	}
	if _, err := PlayVolumetric(VolumetricVideo{}, emu.NewLink(tr, 0), ViVoRate{}, nil); err == nil {
		t.Error("invalid video accepted")
	}
}

func TestQualityOfMonotone(t *testing.T) {
	ls := levels()
	for i := 1; i < len(ls); i++ {
		if qualityOf(ls, i) <= qualityOf(ls, i-1) {
			t.Fatal("quality must grow with level")
		}
	}
	if qualityOf(ls, 0) != 0 {
		t.Error("base level quality must be 0")
	}
}
