package core

// tracks follows the report predictor's four RRS streams, indexed servLTE,
// neighLTE, servNR and neighNR (§7.2's report predictor internals). Each
// track is a triangular-kernel smoother that strips fast fading, followed
// by a least-squares line over the history window. The smoother is the one
// of Long & Sikdar ("A Real-Time Algorithm for Long Range Signal Strength
// Prediction in Wireless Networks"): the mean of the newest smoothWin
// samples, weighted 1, 2, … toward the newest.
//
// The four tracks share one ring of n = max(smoothWin, histWin) rows and
// one write head. The ring is doubled: rows i and i+n hold the same
// values, so every window is one contiguous run of rows, oldest first, and
// one pass over it sums all four tracks with independent accumulators.
// Each track still adds its own values in exactly the order of a ring of
// its own. A track with fewer samples than a window (fresh, reset, or
// restored short) holds exact zeros in its older rows, whose weights and x
// are the integers at or below zero: each adds (w·0) = ±0 to an
// accumulator that is +0, which leaves it +0, so every sum matches the
// track's own ring bit for bit, Inf included, and is NaN where it was.
type tracks struct {
	smoothWin, histWin, n int
	head                  int          // row the next sample is written to, in [0, n)
	raw, sm               [][4]float64 // 2n rows each: the samples, the smoothed values
	// Per track: how many samples its smoother and history windows hold,
	// whether its last sample was valid, and its newest smoothed value.
	inSmooth, inHist [4]int
	valid            [4]bool
	last             [4]float64
}

func newTracks(smoothWin, histWin int) tracks {
	if smoothWin < 1 || histWin < 2 {
		panic("core: report predictor needs a smoother window >= 1 and a history window >= 2")
	}
	n := max(smoothWin, histWin)
	rows := make([][4]float64, 4*n)
	return tracks{smoothWin: smoothWin, histWin: histWin, n: n, raw: rows[:2*n], sm: rows[2*n:]}
}

// reset empties track t: its column of both rings becomes zeros.
func (k *tracks) reset(t int) {
	for i := range k.raw {
		k.raw[i][t], k.sm[i][t] = 0, 0
	}
	k.inSmooth[t], k.inHist[t] = 0, 0
}

// push feeds one sample per track. An invalid sample resets its track (the
// UE no longer measures that cell) and keeps its last smoothed value.
func (k *tracks) push(v [4]float64, ok [4]bool) {
	for t := range v {
		k.valid[t] = ok[t]
		if !ok[t] {
			if k.inSmooth[t] > 0 || k.inHist[t] > 0 {
				k.reset(t)
			}
			v[t] = 0
			continue
		}
		k.inSmooth[t] = min(k.inSmooth[t]+1, k.smoothWin)
		k.inHist[t] = min(k.inHist[t]+1, k.histWin)
	}
	end := k.head + k.n + 1 // one past the newest row
	k.raw[k.head], k.raw[end-1] = v, v
	// Weights run 1..m over a track's m samples; the m(m+1)/2 they sum to
	// is exact.
	w0, w1, w2, w3 := firstAt(k.inSmooth, k.smoothWin, 1)
	var s0, s1, s2, s3 float64
	win := k.raw[end-k.smoothWin : end]
	for i := range win {
		r := &win[i]
		s0 += w0 * r[0]
		s1 += w1 * r[1]
		s2 += w2 * r[2]
		s3 += w3 * r[3]
		w0++
		w1++
		w2++
		w3++
	}
	sm := [4]float64{s0, s1, s2, s3}
	for t := range sm {
		if !ok[t] {
			sm[t] = 0
			continue
		}
		m := k.inSmooth[t]
		sm[t] /= float64(m * (m + 1) / 2)
		k.last[t] = sm[t]
	}
	k.sm[k.head], k.sm[end-1] = sm, sm
	if k.head++; k.head == k.n {
		k.head = 0
	}
}

// firstAt returns each track's weight (or x) at the oldest row of a window
// of win rows, where the oldest of the track's in[t] samples gets at and
// the rows before it count down from there.
func firstAt(in [4]int, win, at int) (float64, float64, float64, float64) {
	return float64(at + in[0] - win), float64(at + in[1] - win), float64(at + in[2] - win), float64(at + in[3] - win)
}

// fit fits each track's least-squares line over its history, x = 0 at its
// oldest sample; a track with fewer than 2 samples stays unfitted. x runs
// over the integers 0..m-1, so n, sx, sxx and den = m²(m²-1)/12 > 0 are
// exact in closed form for any window below ~300,000 samples; only the y
// sums run over the ring.
func (k *tracks) fit(v *[4]trackView) {
	end := k.head + k.n
	x0, x1, x2, x3 := firstAt(k.inHist, k.histWin, 0)
	var sy0, sy1, sy2, sy3, sxy0, sxy1, sxy2, sxy3 float64
	win := k.sm[end-k.histWin : end]
	for i := range win {
		r := &win[i]
		sy0 += r[0]
		sy1 += r[1]
		sy2 += r[2]
		sy3 += r[3]
		sxy0 += x0 * r[0]
		sxy1 += x1 * r[1]
		sxy2 += x2 * r[2]
		sxy3 += x3 * r[3]
		x0++
		x1++
		x2++
		x3++
	}
	sy := [4]float64{sy0, sy1, sy2, sy3}
	sxy := [4]float64{sxy0, sxy1, sxy2, sxy3}
	for t := range v {
		m := k.inHist[t]
		if m < 2 {
			continue
		}
		n := float64(m)
		sx := float64(m * (m - 1) / 2)
		sxx := float64((m - 1) * m * (2*m - 1) / 6)
		den := n*sxx - sx*sx
		b := (n*sxy[t] - sx*sy[t]) / den
		v[t].a, v[t].b, v[t].x0, v[t].fitted = (sy[t]-b*sx)/n, b, float64(m-1), true
	}
}

// views freezes each track's validity and smoothed value, enough for
// k = 0; fit adds the lines.
func (k *tracks) views() (v [4]trackView) {
	for t := range v {
		v[t] = trackView{valid: k.valid[t], last: k.last[t]}
	}
	return v
}

// state exports track t for checkpointing: the newest samples of its two
// windows, oldest first.
func (k *tracks) state(t int) TrackState {
	return TrackState{
		Valid:   k.valid[t],
		Last:    k.last[t],
		Smooth:  k.column(k.raw, t, k.inSmooth[t]),
		History: k.column(k.sm, t, k.inHist[t]),
	}
}

// column copies the newest m values of track t's column, oldest first.
func (k *tracks) column(rows [][4]float64, t, m int) []float64 {
	out := make([]float64, m)
	for j, r := range rows[k.head+k.n-m : k.head+k.n] {
		out[j] = r[t]
	}
	return out
}

// setState restores track t exported with state. Window contents longer
// than the window keep only their newest samples.
func (k *tracks) setState(t int, st TrackState) {
	k.reset(t)
	k.valid[t], k.last[t] = st.Valid, st.Last
	k.inSmooth[t] = k.load(k.raw, t, st.Smooth, k.smoothWin)
	k.inHist[t] = k.load(k.sm, t, st.History, k.histWin)
}

// load writes vs (oldest first, at most win of the newest) into track t's
// column just before the head, and returns how many it wrote.
func (k *tracks) load(rows [][4]float64, t int, vs []float64, win int) int {
	vs = vs[max(0, len(vs)-win):]
	for j, v := range vs {
		i := k.head - len(vs) + j
		if i < 0 {
			i += k.n
		}
		rows[i][t], rows[i+k.n][t] = v, v
	}
	return len(vs)
}
