package abr

import (
	"fmt"
	"time"

	"repro/internal/emu"
)

// Video describes a chunked VoD asset. The paper's 16K panoramic video has
// 60 chunks of 2 s at 6 quality levels (720p … 16K).
type Video struct {
	Levels   []float64 // per-level bitrate, Mbps
	ChunkDur time.Duration
	Chunks   int
}

// Panoramic16K returns the paper's 16K panoramic VoD asset: 120 s in 60
// chunks, 6 levels. Bitrates follow typical H.264 ladder spacing up to a
// 16K top rate.
func Panoramic16K() Video {
	return Video{
		Levels:   []float64{4, 10, 25, 60, 140, 320},
		ChunkDur: 2 * time.Second,
		Chunks:   60,
	}
}

// PlayResult summarises one VoD session.
type PlayResult struct {
	Algorithm string
	// StallS is the total rebuffering time in seconds.
	StallS float64
	// StallPct is stall time relative to video duration.
	StallPct float64
	// AvgBitrateMbps is the mean of the chosen levels' bitrates.
	AvgBitrateMbps float64
	// NormalizedBitrate is AvgBitrate / top-level bitrate.
	NormalizedBitrate float64
	// Switches counts level changes.
	Switches int
	// PredErrMbps collects |predicted − actual| per chunk for the Fig. 14b
	// analysis, split by whether a handover hit the chunk.
	PredErrHO   []float64
	PredErrNoHO []float64
}

// ChunkContext lets the experiment attach per-chunk handover context: the
// ho_score the predictor should see and whether a handover actually
// overlaps the chunk (for error attribution and GT variants).
type ChunkContext struct {
	Score float64 // ho_score for this decision (1 = none)
	HasHO bool    // ground truth: a handover overlaps this chunk
}

// upscaleCap bounds upward ho_score corrections applied by the players;
// see the in-loop comment.
const upscaleCap = 1.25

// ScoreAtFunc supplies the handover context for the chunk whose download
// starts at the given link-local time. The link clock is the authoritative
// position within the bandwidth trace — the player drifts from the
// chunk-index timeline through downloads, stalls and buffer idling.
type ScoreAtFunc func(linkNow time.Duration) ChunkContext

// PlayVoD simulates one session of the video over the emulated link with
// the given algorithm. scoreAt may be nil (no HO correction); otherwise
// each chunk's throughput prediction is multiplied by its ho_score, the
// paper's modification to the rate-adaptation algorithms (§7.4).
func PlayVoD(video Video, link *emu.Link, alg Algorithm, scoreAt ScoreAtFunc) (PlayResult, error) {
	if len(video.Levels) == 0 || video.Chunks <= 0 {
		return PlayResult{}, fmt.Errorf("abr: invalid video %+v", video)
	}
	base := NewHarmonicMean(5)
	errTracker := NewErrorTracker(5)

	res := PlayResult{Algorithm: alg.Name()}
	buffer := 0.0
	last := -1
	const maxBufferS = 30.0
	durS := video.ChunkDur.Seconds()

	var bitSum float64
	for c := 0; c < video.Chunks; c++ {
		score := 1.0
		hasHO := false
		if scoreAt != nil {
			ctx := scoreAt(link.Now())
			if ctx.Score > 0 {
				score = ctx.Score
			}
			// Downward corrections apply fully (they avert stalls at
			// capacity drops); upward corrections are capped — a chunk
			// overlapping an SCG addition still rides the old capacity
			// for part of its duration.
			if score > upscaleCap {
				score = upscaleCap
			}
			hasHO = ctx.HasHO
		}
		pred := base.Predict() * score
		st := State{
			BufferS:       buffer,
			LastLevel:     last,
			PredictedMbps: pred,
			MaxError:      errTracker.MaxError(),
			ChunksLeft:    video.Chunks - c,
		}
		lvl := alg.Choose(st, video.Levels, video.ChunkDur)
		if lvl < 0 {
			lvl = 0
		}
		if lvl >= len(video.Levels) {
			lvl = len(video.Levels) - 1
		}
		sizeBytes := video.Levels[lvl] * 1e6 / 8 * durS
		dl := link.Download(sizeBytes).Seconds()

		actual := video.Levels[lvl] * durS / dl
		base.Observe(actual)
		errTracker.Record(pred, actual)
		errAbs := pred - actual
		if errAbs < 0 {
			errAbs = -errAbs
		}
		if hasHO {
			res.PredErrHO = append(res.PredErrHO, errAbs)
		} else {
			res.PredErrNoHO = append(res.PredErrNoHO, errAbs)
		}

		if dl > buffer {
			res.StallS += dl - buffer
			buffer = 0
		} else {
			buffer -= dl
		}
		buffer += durS
		if buffer > maxBufferS {
			link.Idle(time.Duration((buffer - maxBufferS) * float64(time.Second)))
			buffer = maxBufferS
		}

		bitSum += video.Levels[lvl]
		if last >= 0 && lvl != last {
			res.Switches++
		}
		last = lvl
	}
	total := float64(video.Chunks) * durS
	res.AvgBitrateMbps = bitSum / float64(video.Chunks)
	res.NormalizedBitrate = res.AvgBitrateMbps / video.Levels[len(video.Levels)-1]
	res.StallPct = res.StallS / total * 100
	return res, nil
}
