package core

import (
	"fmt"
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
)

// Config tunes a Prognos instance. The defaults mirror the paper's
// evaluation settings: 1 s history and prediction windows at 20 Hz.
type Config struct {
	// EventConfigs are the measurement configurations sniffed from the RRC
	// layer (step 1 of Fig. 1); required.
	EventConfigs []cellular.EventConfig
	// HistoryWindow bounds how far back observed/predicted reports feed a
	// prediction, and PredictionWindow is how far ahead each prediction
	// claims (default 1 s each, the paper's §7.3 setting).
	HistoryWindow, PredictionWindow time.Duration
	// SmootherWindow is the triangular-kernel length in samples (0 selects
	// the default 8; a negative window is an error).
	SmootherWindow int
	// Learner tunes the decision learner.
	Learner LearnerConfig
	// UseReportPredictor enables the first pipeline stage; when false,
	// Prognos predicts from observed MRs only (the Fig. 18 ablation).
	UseReportPredictor bool
	// Scores overrides the ho_score table (default DefaultScores).
	Scores ScoreTable
	// Arch is the current deployment architecture, used for prediction
	// sanity checks (an SCGM cannot be predicted on LTE, §7.1).
	Arch cellular.Arch
}

// Prediction is Prognos' output for one prediction window.
type Prediction struct {
	// Type is the predicted handover type (HONone when no HO is expected).
	Type cellular.HOType
	// Score is the ho_score applications multiply into their throughput
	// predictions (1.0 for no HO).
	Score float64
	// Similarity is the matched pattern's similarity (0 when no match).
	Similarity float64
	// Lead estimates how far ahead the HO will occur.
	Lead time.Duration
	// PatternKey is the canonical identity of the matched pattern ("" when
	// Type is HONone). It is an interned string — hot paths (core.Replay,
	// the serving loop) read it without the allocation Pattern.Key() costs.
	PatternKey string
	// Pattern is the matched pattern (empty when Type is HONone).
	Pattern Pattern
}

// Prognos is the holistic HO prediction system of §7.2: report predictor →
// decision learner → handover predictor.
type Prognos struct {
	cfg     Config
	report  *ReportPredictor
	learner *DecisionLearner
	scores  ScoreTable

	// phaseKeys accumulates observed MR keys since the last handover, with
	// arrival times for age-based pruning (the decision logic reacts to the
	// recent radio picture, so stale reports are not decision evidence).
	phaseKeys []string
	keyTimes  []time.Duration
	// nrAttached tracks the UE state for sanity checks; servNR and neighNR
	// are the latest NR observations, whose PCIs enrich forecast NR-A3 keys.
	nrAttached      bool
	servNR, neighNR trace.CellObs
	stepDur         time.Duration

	// now tracks the latest sample time; lastKeyAt the arrival of the most
	// recent phase key. An observed-anchored match is only considered
	// fresh for a short bridging interval (the network's preparation
	// stage) after its anchoring report arrived — afterwards the report is
	// stale evidence and only forecast-anchored predictions stand.
	now       time.Duration
	lastKeyAt time.Duration
	// active prediction awaiting resolution at the next handover (for
	// reliability feedback). activeForecast marks a run currently standing
	// on forecast evidence: its end is not a reliability signal (forecasts
	// flap), while an observed-anchored run ending without a handover is a
	// false alarm for the pattern.
	activeKey      string
	activeType     cellular.HOType
	activeForecast bool

	// Per-tick scratch, reused so the steady-state Predict path allocates
	// nothing: the candidate key sequence and the forecast-report buffer.
	seqScratch  []string
	predScratch []PredictedReport
	// admitObserved/admitForecast are the match sanity predicates, built
	// once in New so Predict does not allocate a closure per call.
	admitObserved func(*Pattern) bool
	admitForecast func(*Pattern) bool
}

// New creates a Prognos instance.
func New(cfg Config) (*Prognos, error) {
	if len(cfg.EventConfigs) == 0 {
		return nil, fmt.Errorf("core: Prognos requires the sniffed RRC event configurations")
	}
	if cfg.HistoryWindow == 0 {
		cfg.HistoryWindow = time.Second
	}
	if cfg.PredictionWindow == 0 {
		cfg.PredictionWindow = time.Second
	}
	if cfg.SmootherWindow < 0 {
		return nil, fmt.Errorf("core: smoother window must be >= 0 (0 selects the default), got %d", cfg.SmootherWindow)
	}
	if cfg.SmootherWindow == 0 {
		cfg.SmootherWindow = 8
	}
	if cfg.Scores == nil {
		cfg.Scores = DefaultScores()
	}
	stepDur := trace.SamplePeriod
	histSteps := int(cfg.HistoryWindow / stepDur)
	if histSteps < 2 {
		histSteps = 2
	}
	predSteps := int(cfg.PredictionWindow / stepDur)
	if predSteps < 1 {
		predSteps = 1
	}
	p := &Prognos{
		cfg:     cfg,
		report:  NewReportPredictor(cfg.EventConfigs, cfg.SmootherWindow, histSteps, predSteps, stepDur),
		learner: NewDecisionLearner(cfg.Learner),
		scores:  cfg.Scores,
		stepDur: stepDur,
	}
	p.admitObserved = func(pat *Pattern) bool { return p.admit(pat.HO) }
	// Forecast-anchored predictions only use patterns whose reliability has
	// been proven through observed-anchor feedback: forecasts are the
	// early-warning extension of trusted rules, not a vehicle for unvetted
	// ones.
	p.admitForecast = func(pat *Pattern) bool {
		return p.admit(pat.HO) && pat.Hits+pat.Misses >= 5 && pat.Reliability() >= 0.5
	}
	return p, nil
}

// Bootstrap pre-loads learned patterns (Fig. 15's warm start).
func (p *Prognos) Bootstrap(patterns []Pattern) { p.learner.Bootstrap(patterns) }

// Learner exposes the decision learner (read-mostly: pattern snapshots,
// churn statistics).
func (p *Prognos) Learner() *DecisionLearner { return p.learner }

// SetEventConfigs replaces the sniffed measurement configurations mid-run:
// the serving network pushed a reconfiguration (e.g. the adaptive handover
// layer rewrote TTT/hysteresis), and a real Prognos would sniff the new
// table off the RRC layer exactly like the original one. The report
// predictor re-arms its trigger emulation against the new configs; learned
// patterns are untouched.
func (p *Prognos) SetEventConfigs(configs []cellular.EventConfig) {
	p.report.SetConfigs(configs)
}

// OnSample feeds one 20 Hz cross-layer sample (signal strengths and
// attachment state).
func (p *Prognos) OnSample(s trace.Sample) {
	p.report.Observe(&s)
	p.nrAttached = s.ServingNR.Valid
	p.servNR, p.neighNR = s.ServingNR, s.NeighborNR
	p.now = s.Time
}

// keyFor derives the learner key of a measurement report. NR A3 reports are
// enriched with a same/diff-gNB hint derived from PCI grouping (sectors of
// one gNB carry consecutive PCIs, a UE-observable convention), because the
// network's response to an NR-A3 differs precisely on that distinction
// (SCG Modification within the gNB vs SCG Change across gNBs).
func keyFor(mr cellular.MeasurementReport) string {
	v, ok := internedVariant(mr.Tech, mr.Event)
	if !ok {
		// Outside the interned alphabet: fall back to formatting.
		v = keyVariant{base: mr.Key()}
		v.s, v.d = v.base+"s", v.base+"d"
	}
	if mr.Tech == cellular.TechNR && mr.Event == cellular.EventA3 && mr.NeighborPCI != 0 {
		if pciSameGNB(mr.ServingPCI, mr.NeighborPCI) {
			return v.s
		}
		return v.d
	}
	return v.base
}

// pciSameGNB reports whether two NR PCIs belong to the same gNB under the
// consecutive-PCI sectoring convention.
func pciSameGNB(a, b cellular.PCI) bool {
	d := int(a) - int(b)
	if d < 0 {
		d = -d
	}
	return d <= 2
}

// OnReport feeds one RRC-sniffed measurement report; it extends the current
// phase. Consecutive repeats of the same key (3GPP periodic re-reports of a
// still-standing event) are collapsed: they carry no new decision evidence,
// and collapsing them bounds how long a prediction armed by the first
// report can stand.
func (p *Prognos) OnReport(mr cellular.MeasurementReport) {
	k := keyFor(mr)
	// Periodic re-reports of a standing event are collapsed, but the first
	// repeat is recorded as a distinct "k+" key: some decision rules fire
	// on the second report of a condition (e.g. an SCG release needs two
	// NR-A2 reports), so repetition itself is evidence.
	if n := len(p.phaseKeys); n > 0 {
		last := p.phaseKeys[n-1]
		if last == plusOf(k) {
			return
		}
		if last == k {
			k = plusOf(k)
		}
	}
	p.phaseKeys = append(p.phaseKeys, k)
	p.keyTimes = append(p.keyTimes, mr.Time)
	p.prunePhase(mr.Time)
	p.lastKeyAt = mr.Time
}

// phaseKeyMaxAge matches the network side's effective decision memory.
const phaseKeyMaxAge = 10 * time.Second

// prunePhase drops phase keys that are too old or beyond the depth cap.
func (p *Prognos) prunePhase(now time.Duration) {
	start := 0
	for start < len(p.phaseKeys) && now-p.keyTimes[start] > phaseKeyMaxAge {
		start++
	}
	if over := len(p.phaseKeys) - start - 16; over > 0 {
		start += over
	}
	if start > 0 {
		p.phaseKeys = append(p.phaseKeys[:0], p.phaseKeys[start:]...)
		p.keyTimes = append(p.keyTimes[:0], p.keyTimes[start:]...)
	}
}

// HOKeyPrefix marks the pseudo-key that seeds a phase with the previous
// handover's type. Past HOs are one of Prognos' three inputs (§7:
// "observed signal strength readings, UE-side measurement reports, and past
// HOs") — they make procedure chains like the forced SCG change after an
// anchor handover learnable.
const HOKeyPrefix = "HO:"

// OnHandover feeds one RRC-sniffed handover command: the current phase
// closes and is learned online, the active prediction is resolved for
// reliability feedback, and the next phase is seeded with the handover's
// pseudo-key.
func (p *Prognos) OnHandover(ho cellular.HandoverEvent) {
	if p.activeKey != "" {
		p.learner.Feedback(p.activeKey, ho.Type == p.activeType)
		p.activeKey = ""
	}
	p.learner.ObservePhase(p.phaseKeys, ho.Type)
	p.phaseKeys = p.phaseKeys[:0]
	p.keyTimes = p.keyTimes[:0]
	p.phaseKeys = append(p.phaseKeys, hoKey(ho.Type))
	p.keyTimes = append(p.keyTimes, ho.Time)
	p.lastKeyAt = ho.Time
}

// admit is the context sanity check of §7.2: predictions impossible in the
// current radio state are excluded from the candidate set, shrinking the
// action space.
func (p *Prognos) admit(ho cellular.HOType) bool {
	switch p.cfg.Arch {
	case cellular.ArchSA:
		return ho == cellular.HOMCGH
	case cellular.ArchLTE:
		return ho == cellular.HOLTEH
	}
	switch ho {
	case cellular.HOMCGH:
		return false
	case cellular.HOSCGA:
		return !p.nrAttached
	case cellular.HOSCGR, cellular.HOSCGM, cellular.HOSCGC, cellular.HOMNBH:
		return p.nrAttached
	case cellular.HOLTEH:
		return !p.nrAttached
	default:
		return true
	}
}

// Predict produces the prediction for the next prediction window. The
// candidate MR sequence is the observed phase so far plus (when the report
// predictor is enabled) the reports forecast to trigger within the window.
// Matches anchored at the newest *observed* key take priority — a
// completing report in hand means the HO command is imminent — with
// forecast-anchored matches as the early-warning fallback. An active
// prediction expires at a deadline; expiry penalises and suppresses the
// pattern until new observed evidence arrives.
func (p *Prognos) Predict() Prediction {
	p.prunePhase(p.now)
	seq := append(p.seqScratch[:0], p.phaseKeys...)
	nObserved := len(seq)
	var preds []PredictedReport
	if p.cfg.UseReportPredictor {
		preds = p.report.PredictInto(p.predScratch[:0])
		p.predScratch = preds
		for _, pr := range preds {
			key := p.predictedKey(pr)
			if len(seq) > 0 && seq[len(seq)-1] == key {
				continue // trigger already fired and was logged
			}
			seq = append(seq, key)
		}
	}
	p.seqScratch = seq
	if len(seq) == 0 {
		return Prediction{Type: cellular.HONone, Score: 1}
	}

	var bestPat *Pattern
	bestKey := ""
	bestSim := -1.0
	bestForecast := false
	tryAnchor := func(cut int) {
		if cut < 1 || cut > len(seq) {
			return
		}
		admit := p.admitObserved
		if cut > nObserved {
			admit = p.admitForecast
		}
		pat, key, simil, ok := p.learner.match(seq[:cut], admit)
		if ok && simil > bestSim {
			bestSim = simil
			bestPat = pat
			bestKey = key
			bestForecast = cut > nObserved
		}
	}
	// The observed anchor only stands while fresh — a completing report in
	// hand means the command lands within the preparation stage; after
	// that the evidence is stale. Forecast anchors always stand: they
	// describe the upcoming window by construction.
	const anchorFresh = 700 * time.Millisecond
	if nObserved >= 1 && p.now-p.lastKeyAt <= anchorFresh {
		tryAnchor(nObserved)
	}
	for cut := nObserved + 1; cut <= len(seq); cut++ {
		tryAnchor(cut)
	}
	if bestPat == nil {
		// An observed-anchored run ending with no handover is a false
		// alarm; a lapsed forecast run is neutral.
		if p.activeKey != "" {
			if !p.activeForecast {
				p.learner.Feedback(p.activeKey, false)
			}
			p.activeKey = ""
		}
		return Prediction{Type: cellular.HONone, Score: 1}
	}

	lead := time.Duration(0)
	if len(preds) > 0 {
		lead = time.Duration(preds[0].LeadSteps) * p.stepDur
	}
	// A different pattern taking over without an intervening handover
	// resolves an observed-anchored prediction as a false alarm.
	if p.activeKey != "" && p.activeKey != bestKey && !p.activeForecast {
		p.learner.Feedback(p.activeKey, false)
	}
	p.activeKey = bestKey
	p.activeType = bestPat.HO
	p.activeForecast = bestForecast
	cp := *bestPat
	cp.Seq = append([]string(nil), bestPat.Seq...)
	return Prediction{
		Type:       bestPat.HO,
		Score:      p.scores.Score(bestPat.HO),
		Similarity: bestSim,
		Lead:       lead,
		PatternKey: bestKey,
		Pattern:    cp,
	}
}

// predictedKey derives the learner key of a forecast report, applying the
// same NR-A3 gNB enrichment as keyFor using the latest observed PCIs, and
// the repeat marker for forecast re-reports.
func (p *Prognos) predictedKey(pr PredictedReport) string {
	v, ok := internedVariant(pr.Tech, pr.Event)
	if !ok {
		v = keyVariant{base: pr.Key()}
		v.s, v.d = v.base+"s", v.base+"d"
	}
	k := v.base
	if pr.Tech == cellular.TechNR && pr.Event == cellular.EventA3 {
		if p.servNR.Valid && p.neighNR.Valid {
			if pciSameGNB(p.servNR.PCI, p.neighNR.PCI) {
				k = v.s
			} else {
				k = v.d
			}
		}
	}
	if pr.Repeat {
		k = plusOf(k)
	}
	return k
}

// PhaseKeys returns the observed MR keys of the open phase (for tests and
// diagnostics).
func (p *Prognos) PhaseKeys() []string {
	return append([]string(nil), p.phaseKeys...)
}
