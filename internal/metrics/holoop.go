package metrics

// HOLoopArm is one policy arm's outcome for one UE in the adaptive-vs-
// static handover comparison: the same seed, route and deployment driven
// once under the static carrier policy and once under the prediction-driven
// adaptive layer.
type HOLoopArm struct {
	// Handovers counts every procedure; Moves the cell-changing subset the
	// ping-pong rate normalises over.
	Handovers int `json:"handovers"`
	Moves     int `json:"moves"`
	PingPongs int `json:"ping_pongs"`
	// PingPongRate is PingPongs/Moves (0 when no moves).
	PingPongRate float64 `json:"ping_pong_rate"`
	// InterruptMS is the summed execution-stage (T2) time of interrupting
	// handovers; MeanInterruptMS the per-handover mean.
	InterruptMS     float64 `json:"interrupt_ms"`
	MeanInterruptMS float64 `json:"mean_interrupt_ms"`
	// MeanTputMbps / StallFrac are the drive-level QoE summary.
	MeanTputMbps float64 `json:"mean_tput_mbps"`
	StallFrac    float64 `json:"stall_frac"`
	// TP/FP/FN are the event-level prediction outcomes of this arm's
	// forecast series (in-loop for adaptive, offline replay for static);
	// F1 the per-UE harmonic mean. The summary recomputes F1 from the
	// pooled tallies, which is why they are carried per arm.
	TP int     `json:"tp"`
	FP int     `json:"fp"`
	FN int     `json:"fn"`
	F1 float64 `json:"f1"`
}

// HOLoopUE is one UE's paired result.
type HOLoopUE struct {
	// Index is the UE's position in the fleet; Seed its derived drive seed.
	Index int   `json:"index"`
	Seed  int64 `json:"seed"`
	// Static and Adaptive are the two arms over identical seed/topology.
	Static   HOLoopArm `json:"static"`
	Adaptive HOLoopArm `json:"adaptive"`
	// EarlyPreps / SkipAheads / Reconfigs / PrepSavedMS summarise what the
	// controller did during the adaptive arm.
	EarlyPreps  int64   `json:"early_preps"`
	SkipAheads  int64   `json:"skip_aheads"`
	Reconfigs   int64   `json:"reconfigs"`
	PrepSavedMS float64 `json:"prep_saved_ms"`
	// Error records a per-UE failure (UE excluded from the summary).
	Error string `json:"error,omitempty"`
}

// HOLoopSummary aggregates the fleet.
type HOLoopSummary struct {
	UEs    int `json:"ues"`
	Errors int `json:"errors,omitempty"`
	// Pooled handover volumes and ping-pong tallies per arm; the rates are
	// pooled (total ping-pongs / total moves), not means of per-UE rates,
	// so sparse UEs do not distort them.
	StaticHandovers      int     `json:"static_handovers"`
	AdaptiveHandovers    int     `json:"adaptive_handovers"`
	StaticPingPongs      int     `json:"static_ping_pongs"`
	AdaptivePingPongs    int     `json:"adaptive_ping_pongs"`
	StaticPingPongRate   float64 `json:"static_ping_pong_rate"`
	AdaptivePingPongRate float64 `json:"adaptive_ping_pong_rate"`
	// PingPongReduction is the relative rate drop (1 − adaptive/static;
	// 0 when the static rate is 0).
	PingPongReduction float64 `json:"ping_pong_reduction"`
	// Mean per-handover interruption (pooled) per arm.
	StaticMeanInterruptMS   float64 `json:"static_mean_interrupt_ms"`
	AdaptiveMeanInterruptMS float64 `json:"adaptive_mean_interrupt_ms"`
	// Fleet-mean QoE per arm.
	StaticMeanTputMbps   float64 `json:"static_mean_tput_mbps"`
	AdaptiveMeanTputMbps float64 `json:"adaptive_mean_tput_mbps"`
	StaticStallFrac      float64 `json:"static_stall_frac"`
	AdaptiveStallFrac    float64 `json:"adaptive_stall_frac"`
	// Pooled event-level F1 per arm (recomputed from summed TP/FP/FN).
	StaticF1   float64 `json:"static_f1"`
	AdaptiveF1 float64 `json:"adaptive_f1"`
	// Controller action totals.
	EarlyPreps  int64   `json:"early_preps"`
	SkipAheads  int64   `json:"skip_aheads"`
	Reconfigs   int64   `json:"reconfigs"`
	PrepSavedMS float64 `json:"prep_saved_ms"`
}

// HOLoopReport is the full adaptive-vs-static comparison. Like SweepReport
// it carries no wall-clock or worker-count fields: the bytes for a given
// configuration are identical at any -jobs setting.
type HOLoopReport struct {
	Seed    int64  `json:"seed"`
	UEs     int    `json:"ues"`
	Carrier string `json:"carrier"`
	Arch    string `json:"arch"`
	// DriveSeconds is the per-UE sim duration; PingPongWindowS the A→B→A
	// critical window; WindowSeconds the prediction-window match tolerance.
	DriveSeconds    float64 `json:"drive_seconds"`
	PingPongWindowS float64 `json:"ping_pong_window_s"`
	WindowSeconds   float64 `json:"window_seconds"`
	// EarlyPrep/SkipAhead/AdaptTTT record which controls the adaptive arm
	// ran with (ablations switch them individually).
	EarlyPrep bool `json:"early_prep"`
	SkipAhead bool `json:"skip_ahead"`
	AdaptTTT  bool `json:"adapt_ttt"`

	Results []HOLoopUE    `json:"results"`
	Summary HOLoopSummary `json:"summary"`
}

// Summarize computes the fleet aggregates from Results.
func (r *HOLoopReport) Summarize() {
	s := HOLoopSummary{UEs: len(r.Results)}
	var sMoves, aMoves int
	var sIntrTotal, aIntrTotal float64
	var sIntrCount, aIntrCount int
	var sTput, aTput, sStall, aStall float64
	var sTP, sFP, sFN, aTP, aFP, aFN int
	n := 0
	for _, u := range r.Results {
		if u.Error != "" {
			s.Errors++
			continue
		}
		n++
		s.StaticHandovers += u.Static.Handovers
		s.AdaptiveHandovers += u.Adaptive.Handovers
		s.StaticPingPongs += u.Static.PingPongs
		s.AdaptivePingPongs += u.Adaptive.PingPongs
		sMoves += u.Static.Moves
		aMoves += u.Adaptive.Moves
		sIntrTotal += u.Static.InterruptMS
		aIntrTotal += u.Adaptive.InterruptMS
		if u.Static.MeanInterruptMS > 0 {
			sIntrCount += int(u.Static.InterruptMS/u.Static.MeanInterruptMS + 0.5)
		}
		if u.Adaptive.MeanInterruptMS > 0 {
			aIntrCount += int(u.Adaptive.InterruptMS/u.Adaptive.MeanInterruptMS + 0.5)
		}
		sTput += u.Static.MeanTputMbps
		aTput += u.Adaptive.MeanTputMbps
		sStall += u.Static.StallFrac
		aStall += u.Adaptive.StallFrac
		sTP += u.Static.TP
		sFP += u.Static.FP
		sFN += u.Static.FN
		aTP += u.Adaptive.TP
		aFP += u.Adaptive.FP
		aFN += u.Adaptive.FN
		s.EarlyPreps += u.EarlyPreps
		s.SkipAheads += u.SkipAheads
		s.Reconfigs += u.Reconfigs
		s.PrepSavedMS += u.PrepSavedMS
	}
	if sMoves > 0 {
		s.StaticPingPongRate = float64(s.StaticPingPongs) / float64(sMoves)
	}
	if aMoves > 0 {
		s.AdaptivePingPongRate = float64(s.AdaptivePingPongs) / float64(aMoves)
	}
	if s.StaticPingPongRate > 0 {
		s.PingPongReduction = 1 - s.AdaptivePingPongRate/s.StaticPingPongRate
	}
	if sIntrCount > 0 {
		s.StaticMeanInterruptMS = sIntrTotal / float64(sIntrCount)
	}
	if aIntrCount > 0 {
		s.AdaptiveMeanInterruptMS = aIntrTotal / float64(aIntrCount)
	}
	if n > 0 {
		s.StaticMeanTputMbps = sTput / float64(n)
		s.AdaptiveMeanTputMbps = aTput / float64(n)
		s.StaticStallFrac = sStall / float64(n)
		s.AdaptiveStallFrac = aStall / float64(n)
	}
	s.StaticF1 = pooledF1(sTP, sFP, sFN)
	s.AdaptiveF1 = pooledF1(aTP, aFP, aFN)
	r.Summary = s
}

// pooledF1 computes the event-level F1 from pooled tallies.
func pooledF1(tp, fp, fn int) float64 {
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(tp+fp)
	rc := float64(tp) / float64(tp+fn)
	return 2 * p * rc / (p + rc)
}
