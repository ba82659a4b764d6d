package policygen

import "time"

// QuantizeTTT snaps a duration to the nearest 3GPP-enumerated
// time-to-trigger (ties toward the smaller value; out-of-range values clamp
// to the enumeration's ends).
func QuantizeTTT(d time.Duration) time.Duration {
	best := tttSet[0]
	bestDiff := time.Duration(1<<63 - 1)
	for _, v := range tttSet {
		diff := v - d
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			bestDiff = diff
			best = v
		}
	}
	return best
}

// ScaleTTT scales a TTT and snaps the result back into the 3GPP
// enumeration, guaranteeing the move is effective: scaling up always lands
// strictly above the input (until the enumeration's top), scaling down
// strictly below it (until 0). A scale of 1 returns the input unchanged.
func ScaleTTT(d time.Duration, scale float64) time.Duration {
	if scale == 1 {
		return d
	}
	q := QuantizeTTT(time.Duration(float64(d) * scale))
	if scale > 1 && q <= d {
		return nextTTTAbove(d)
	}
	if scale < 1 && q >= d {
		return nextTTTBelow(d)
	}
	return q
}

// nextTTTAbove returns the smallest enumerated TTT strictly above d (d
// itself when d is already the top).
func nextTTTAbove(d time.Duration) time.Duration {
	for _, v := range tttSet {
		if v > d {
			return v
		}
	}
	return tttSet[len(tttSet)-1]
}

// nextTTTBelow returns the largest enumerated TTT strictly below d (0 when
// none is).
func nextTTTBelow(d time.Duration) time.Duration {
	out := tttSet[0]
	for _, v := range tttSet {
		if v < d {
			out = v
		}
	}
	return out
}
