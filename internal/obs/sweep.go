package obs

import (
	"repro/internal/metrics"
)

// RegisterSweepMetrics exposes a running policy sweep's aggregates on a
// registry, so `vivisect sweep -ops-addr` makes a long portfolio run
// observable from the ops plane: carriers planned/done, convergence and
// re-convergence counts, the running median time-to-F1, and the population
// F1 floor so far. snap returns the sweep so far: Carriers is the planned
// count and Summary covers the finished carriers (metrics.SweepStats).
func RegisterSweepMetrics(r *Registry, snap func() metrics.SweepReport) {
	gauge := func(name, help string, sel func(metrics.SweepReport) float64) {
		r.Gauge(name, help, func() float64 { return sel(snap()) })
	}
	gauge("prognos_sweep_carriers_planned", "Carriers this sweep will run.",
		func(p metrics.SweepReport) float64 { return float64(p.Carriers) })
	gauge("prognos_sweep_carriers_done", "Carriers finished so far.",
		func(p metrics.SweepReport) float64 { return float64(p.Summary.Carriers) })
	gauge("prognos_sweep_carrier_errors", "Carriers that failed to run.",
		func(p metrics.SweepReport) float64 { return float64(p.Summary.Errors) })
	gauge("prognos_sweep_converged", "Carriers whose windowed F1 reached the sweep threshold.",
		func(p metrics.SweepReport) float64 { return float64(p.Summary.Converged) })
	gauge("prognos_sweep_reconverged", "Carriers that recovered the threshold after the mid-run policy drift.",
		func(p metrics.SweepReport) float64 { return float64(p.Summary.Reconverged) })
	gauge("prognos_sweep_median_time_to_f1_seconds", "Running median sim-seconds to first reach the F1 threshold (converged carriers).",
		func(p metrics.SweepReport) float64 { return p.Summary.MedianTimeToF1S })
	gauge("prognos_sweep_f1_floor", "Worst per-carrier F1 floor observed so far (0 until the first carrier finishes).",
		func(p metrics.SweepReport) float64 { return p.Summary.F1Floor })
}
