package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// runHOLoop executes the adaptive-vs-static closed-loop comparison and, under
// -gate, enforces the CI acceptance bar: the adaptive arm must show a lower
// ping-pong rate than the static arm while keeping its event-level F1 within
// f1Epsilon of the static (offline-replay) baseline. Stdout and the JSON
// report are byte-identical at any -jobs value.
func runHOLoop(cfg experiments.HOLoopConfig, reportPath string, gate bool, f1Epsilon float64) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "vivisect: holoop: %v\n", err)
		return 1
	}

	start := time.Now()
	var done atomic.Int64
	cfg.OnUE = func(u metrics.HOLoopUE) {
		n := done.Add(1)
		if u.Error != "" {
			fmt.Fprintf(os.Stderr, "[%d/%d] ue%03d FAILED: %s\n", n, cfg.UEs, u.Index, u.Error)
			return
		}
		fmt.Fprintf(os.Stderr, "[%d/%d] ue%03d pp %d->%d preps=%d skips=%d reconf=%d\n",
			n, cfg.UEs, u.Index, u.Static.PingPongs, u.Adaptive.PingPongs,
			u.EarlyPreps, u.SkipAheads, u.Reconfigs)
	}
	rep, err := experiments.RunHOLoop(context.Background(), cfg)
	if err != nil {
		return fail(err)
	}
	wall := time.Since(start)

	s := rep.Summary
	fmt.Printf("closed-loop handover control: seed %d, %d UEs, %s/%s, controls prep=%v skip=%v ttt=%v\n",
		rep.Seed, s.UEs, rep.Carrier, rep.Arch, rep.EarlyPrep, rep.SkipAhead, rep.AdaptTTT)
	fmt.Printf("  handovers         static %d, adaptive %d\n", s.StaticHandovers, s.AdaptiveHandovers)
	fmt.Printf("  ping-pong rate    static %.4f (%d), adaptive %.4f (%d)  [%+.1f%%]\n",
		s.StaticPingPongRate, s.StaticPingPongs, s.AdaptivePingPongRate, s.AdaptivePingPongs,
		-100*s.PingPongReduction)
	fmt.Printf("  mean interrupt    static %.1f ms, adaptive %.1f ms\n",
		s.StaticMeanInterruptMS, s.AdaptiveMeanInterruptMS)
	fmt.Printf("  mean throughput   static %.2f Mbps, adaptive %.2f Mbps (stall %.4f -> %.4f)\n",
		s.StaticMeanTputMbps, s.AdaptiveMeanTputMbps, s.StaticStallFrac, s.AdaptiveStallFrac)
	fmt.Printf("  prediction F1     static %.3f (offline replay), adaptive %.3f (in-loop)\n",
		s.StaticF1, s.AdaptiveF1)
	fmt.Printf("  controller        %d early-preps (%.0f ms saved), %d skip-aheads, %d reconfigs\n",
		s.EarlyPreps, s.PrepSavedMS, s.SkipAheads, s.Reconfigs)
	if s.Errors > 0 {
		fmt.Printf("  errors            %d\n", s.Errors)
	}
	fmt.Fprintf(os.Stderr, "holoop: %d UE pairs in %v wall\n", s.UEs, wall.Round(time.Millisecond))

	if reportPath != "" {
		if err := metrics.WriteJSON(reportPath, rep); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "holoop report written to %s\n", reportPath)
	}
	if s.Errors > 0 {
		return 1
	}
	if gate {
		ok := true
		if s.AdaptivePingPongRate >= s.StaticPingPongRate {
			fmt.Fprintf(os.Stderr, "holoop: GATE FAIL: adaptive ping-pong rate %.4f not below static %.4f\n",
				s.AdaptivePingPongRate, s.StaticPingPongRate)
			ok = false
		}
		if s.AdaptiveF1 < s.StaticF1-f1Epsilon {
			fmt.Fprintf(os.Stderr, "holoop: GATE FAIL: adaptive F1 %.3f below static %.3f - epsilon %.3f\n",
				s.AdaptiveF1, s.StaticF1, f1Epsilon)
			ok = false
		}
		if !ok {
			return 1
		}
		fmt.Fprintf(os.Stderr, "holoop: gate OK (ping-pong %.4f < %.4f, F1 within %.3f)\n",
			s.AdaptivePingPongRate, s.StaticPingPongRate, f1Epsilon)
	}
	return 0
}
