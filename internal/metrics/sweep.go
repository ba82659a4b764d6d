package metrics

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
)

// SweepCarrier is one generated carrier's outcome in a policy sweep: did
// the online learner converge on this carrier's (unseen) policy, how fast,
// and — under drift — how fast did it recover after the carrier rewrote
// the policy mid-run.
type SweepCarrier struct {
	// Index is the carrier's position in the seed's population; together
	// with the sweep seed it fully determines the portfolio.
	Index int    `json:"index"`
	Name  string `json:"name"`
	// Sequence is the base LTE decision sequence (e.g. "A2,A5");
	// DriftSequence the post-drift one (empty without drift).
	Sequence      string `json:"sequence"`
	DriftSequence string `json:"drift_sequence,omitempty"`
	// Handovers / Reports are the drive's ground-truth volumes.
	Handovers int `json:"handovers"`
	Reports   int `json:"reports"`
	// Converged / TimeToF1S: whether (and how many sim-seconds in) the
	// windowed F1 first sustained the sweep threshold.
	Converged bool    `json:"converged"`
	TimeToF1S float64 `json:"time_to_f1_s,omitempty"`
	// Reconverged / ReconvergeS: same measure restarted at the drift
	// point (meaningful only when the sweep ran with drift).
	Reconverged bool    `json:"reconverged,omitempty"`
	ReconvergeS float64 `json:"reconverge_s,omitempty"`
	// PreDriftF1 is the converged quality just before the rewrite;
	// PostDriftMinF1 the trough right after it (the drift damage).
	PreDriftF1     float64 `json:"pre_drift_f1,omitempty"`
	PostDriftMinF1 float64 `json:"post_drift_min_f1,omitempty"`
	// FloorF1 is the worst handover-carrying bucket after the carrier
	// first converged (whole drive when it never did) — under drift, the
	// rewrite's damage; FinalF1 the tail mean (converged end state).
	FloorF1 float64 `json:"floor_f1"`
	FinalF1 float64 `json:"final_f1"`
	// Error records a per-carrier failure (carrier excluded from the
	// summary aggregates).
	Error string `json:"error,omitempty"`
}

// SweepSummary aggregates a sweep population.
type SweepSummary struct {
	Carriers int `json:"carriers"`
	Errors   int `json:"errors,omitempty"`
	// Converged counts carriers whose F1 reached the threshold;
	// MedianTimeToF1S / P90TimeToF1S describe how fast (converged
	// carriers only).
	Converged       int     `json:"converged"`
	MedianTimeToF1S float64 `json:"median_time_to_f1_s"`
	P90TimeToF1S    float64 `json:"p90_time_to_f1_s"`
	// Reconverged / MedianReconvergeS / P90ReconvergeS: the post-drift
	// recovery statistics (drift sweeps only).
	Reconverged       int     `json:"reconverged,omitempty"`
	MedianReconvergeS float64 `json:"median_reconverge_s,omitempty"`
	P90ReconvergeS    float64 `json:"p90_reconverge_s,omitempty"`
	// F1Floor is the population minimum of per-carrier floors — the
	// paper-claim stress number ("how bad does online adaptation ever
	// get") — with its P10 and median for shape.
	F1Floor       float64 `json:"f1_floor"`
	F1FloorP10    float64 `json:"f1_floor_p10"`
	F1FloorMedian float64 `json:"f1_floor_median"`
	// MedianFinalF1 is the population's converged end-state quality.
	MedianFinalF1 float64 `json:"median_final_f1"`
}

// SweepReport is the full result of one policy-portfolio sweep. It
// deliberately contains no wall-clock or worker-count fields: the report
// bytes for a given (seed, carriers, drift, thresholds) are identical at
// any -jobs setting, which the determinism test pins.
type SweepReport struct {
	Seed     int64 `json:"seed"`
	Carriers int   `json:"carriers"`
	Drift    bool  `json:"drift"`
	// DriftAtS is the sim time of the mid-run rewrite (drift sweeps).
	DriftAtS float64 `json:"drift_at_s,omitempty"`
	// F1Threshold is the convergence bar; DriveSeconds the per-carrier
	// sim duration; BucketSeconds the F1-series bucket; WindowSeconds the
	// prediction-window match tolerance.
	F1Threshold   float64        `json:"f1_threshold"`
	DriveSeconds  float64        `json:"drive_seconds"`
	BucketSeconds float64        `json:"bucket_seconds"`
	WindowSeconds float64        `json:"window_seconds"`
	Results       []SweepCarrier `json:"results"`
	Summary       SweepSummary   `json:"summary"`
}

// Summarize computes the population aggregates from Results.
func (r *SweepReport) Summarize() {
	s := SweepSummary{Carriers: len(r.Results)}
	var ttf, reconv, floors, finals []float64
	for _, c := range r.Results {
		if c.Error != "" {
			s.Errors++
			continue
		}
		if c.Converged {
			s.Converged++
			ttf = append(ttf, c.TimeToF1S)
		}
		if c.Reconverged {
			s.Reconverged++
			reconv = append(reconv, c.ReconvergeS)
		}
		floors = append(floors, c.FloorF1)
		finals = append(finals, c.FinalF1)
	}
	s.MedianTimeToF1S = percentile(ttf, 0.5)
	s.P90TimeToF1S = percentile(ttf, 0.9)
	s.MedianReconvergeS = percentile(reconv, 0.5)
	s.P90ReconvergeS = percentile(reconv, 0.9)
	s.F1Floor = percentile(floors, 0)
	s.F1FloorP10 = percentile(floors, 0.1)
	s.F1FloorMedian = percentile(floors, 0.5)
	s.MedianFinalF1 = percentile(finals, 0.5)
	r.Summary = s
}

// percentile is the linear-interpolation quantile used by the sweep
// aggregates. It duplicates analysis.Percentile because metrics cannot
// import analysis: sim imports metrics (through obs), and analysis's
// tests import sim.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Marshal renders the report as indented JSON (stable key order via struct
// tags — the bytes are the determinism contract).
func (r SweepReport) Marshal() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteFile writes the report to path.
func (r SweepReport) WriteFile(path string) error {
	b, err := r.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// SweepProgress is a point-in-time snapshot of a running sweep, exported
// through the ops plane so a long fleet run is observable mid-flight.
type SweepProgress struct {
	Planned         int
	Done            int
	Errors          int
	Converged       int
	Reconverged     int
	MedianTimeToF1S float64
	F1Floor         float64
	HasFloor        bool
}

// SweepStats is the live, concurrency-safe aggregator behind
// SweepProgress: the sweep runner Observes each finished carrier from
// whatever worker ran it.
type SweepStats struct {
	mu          sync.Mutex
	planned     int
	done        int
	errors      int
	converged   int
	reconverged int
	ttf         []float64
	floor       float64
	hasFloor    bool
}

// Start resets the aggregator for a run of n carriers.
func (s *SweepStats) Start(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.planned = n
	s.done, s.errors, s.converged, s.reconverged = 0, 0, 0, 0
	s.ttf = nil
	s.floor, s.hasFloor = 0, false
}

// Observe folds one finished carrier into the running aggregates.
func (s *SweepStats) Observe(c SweepCarrier) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done++
	if c.Error != "" {
		s.errors++
		return
	}
	if c.Converged {
		s.converged++
		s.ttf = append(s.ttf, c.TimeToF1S)
	}
	if c.Reconverged {
		s.reconverged++
	}
	if !s.hasFloor || c.FloorF1 < s.floor {
		s.floor = c.FloorF1
		s.hasFloor = true
	}
}

// Snapshot returns the current progress.
func (s *SweepStats) Snapshot() SweepProgress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SweepProgress{
		Planned:         s.planned,
		Done:            s.done,
		Errors:          s.errors,
		Converged:       s.converged,
		Reconverged:     s.reconverged,
		MedianTimeToF1S: percentile(s.ttf, 0.5),
		F1Floor:         s.floor,
		HasFloor:        s.hasFloor,
	}
}
