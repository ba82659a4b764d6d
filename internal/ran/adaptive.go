package ran

import (
	"time"

	"repro/internal/cellular"
	"repro/internal/policygen"
)

// This file closes the prediction loop (docs/ARCHITECTURE.md §The closed
// loop): Prognos output, distilled into Forecasts, feeds an
// AdaptiveController that steers the live carrier policy — predictive
// early-prep of the handover stages, skip-ahead target selection, and
// per-UE TTT/hysteresis adaptation. The controller is pure control logic
// over sim time: it owns no RNG and does no I/O, so an adaptive drive
// stays a deterministic function of its seed.

// Forecast is one Prognos prediction distilled for RAN control: the
// predicted handover type, a confidence in [0, 1] (pattern similarity ×
// learned reliability), and the estimated lead until the command.
type Forecast struct {
	Type       cellular.HOType
	Confidence float64
	Lead       time.Duration
}

// AdaptiveConfig switches and tunes the three prediction-driven controls.
// Each control is independent; the zero value (all off) disables the layer
// entirely and a drive behaves bit-identically to the static policy.
type AdaptiveConfig struct {
	// EarlyPrep credits standing-forecast time against T1 (preparation ran
	// ahead of the trigger) and part of T2 (the target is pre-configured,
	// as in 3GPP conditional handover).
	EarlyPrep bool
	// SkipAhead makes SCG target selection jump to the strongest adequate
	// cell — the predicted final cell of the would-be handover chain —
	// instead of the first adequate one.
	SkipAhead bool
	// AdaptTTT relaxes TTT/hysteresis on observed ping-pong and tightens
	// them when predictions are reliably confirmed, per-UE, within the
	// 3GPP-enumerated value sets.
	AdaptTTT bool

	// MinConfidence is the arming bar for forecasts.
	MinConfidence float64
	// PrepCap bounds the T1 credit; ExecCredit the T2 fraction a fully
	// prepared target saves.
	PrepCap    time.Duration
	ExecCredit float64

	// Relax/Tighten steps (see policygen.AdaptiveSpec for semantics).
	RelaxTTTScale       float64
	RelaxHysteresisDB   float64
	TightenTTTScale     float64
	TightenHysteresisDB float64

	// PingPongWindow is the critical A→B→A time; CalmAfter how long without
	// a ping-pong before one relax step unwinds; ReconfMinGap the minimum
	// spacing between measurement reconfigurations.
	PingPongWindow time.Duration
	CalmAfter      time.Duration
	ReconfMinGap   time.Duration
}

// Enabled reports whether any control is on.
func (c *AdaptiveConfig) Enabled() bool {
	return c != nil && (c.EarlyPrep || c.SkipAhead || c.AdaptTTT)
}

// AdaptiveFromSpec compiles a policygen spec into a live config.
func AdaptiveFromSpec(s policygen.AdaptiveSpec) *AdaptiveConfig {
	return &AdaptiveConfig{
		EarlyPrep:           s.EarlyPrep,
		SkipAhead:           s.SkipAhead,
		AdaptTTT:            s.AdaptTTT,
		MinConfidence:       s.MinConfidence,
		PrepCap:             time.Duration(s.PrepCapS * float64(time.Second)),
		ExecCredit:          s.ExecCredit,
		RelaxTTTScale:       s.RelaxTTTScale,
		RelaxHysteresisDB:   s.RelaxHysteresisDB,
		TightenTTTScale:     s.TightenTTTScale,
		TightenHysteresisDB: s.TightenHysteresisDB,
		PingPongWindow:      time.Duration(s.PingPongWindowS * float64(time.Second)),
		CalmAfter:           time.Duration(s.CalmAfterS * float64(time.Second)),
		ReconfMinGap:        time.Duration(s.ReconfMinGapS * float64(time.Second)),
	}
}

// DefaultAdaptive compiles the reference spec (all three controls on).
func DefaultAdaptive() *AdaptiveConfig {
	return AdaptiveFromSpec(policygen.DefaultAdaptiveSpec())
}

// AdaptiveStats counts what the closed loop actually did during a drive.
type AdaptiveStats struct {
	// Forecasts is the number of distinct armed forecasts; Hits/Misses how
	// they resolved (a matching handover vs a lapse or type flip).
	Forecasts int64 `json:"forecasts"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	// EarlyPreps counts handovers granted preparation credit; PrepSavedMS
	// the total T1+T2 time saved.
	EarlyPreps  int64   `json:"early_preps"`
	PrepSavedMS float64 `json:"prep_saved_ms"`
	// SkipAheads counts SCG target selections that actually changed cell.
	SkipAheads int64 `json:"skip_aheads"`
	// Reconfigs counts applied TTT/hysteresis rewrites, split into relax
	// and tighten direction changes; FinalStance is the stance at drive
	// end (+n relaxed, −1 tightened, 0 base).
	Reconfigs   int64 `json:"reconfigs"`
	Relaxes     int64 `json:"relaxes"`
	Tightens    int64 `json:"tightens"`
	FinalStance int   `json:"final_stance"`
	// PingPongs is the controller's own count of observed A→B→A pairs.
	PingPongs int64 `json:"ping_pongs"`
}

// maxRelaxStance bounds how far repeated ping-pong can relax the policy
// (each step multiplies TTT by RelaxTTTScale).
const maxRelaxStance = 2

// armedHold is how long an armed forecast stands past its last confirming
// prediction tick before it lapses as a miss.
const armedHold = 1500 * time.Millisecond

// prepRamp is the standing time after which a forecast earns the full
// ExecCredit on T2 (credit ramps linearly up to it).
const prepRamp = 500 * time.Millisecond

// hitEMAAlpha smooths the forecast hit-rate the tighten rule reads.
const hitEMAAlpha = 0.2

// tightenAbove / tightenMinResolved / untightenBelow parameterise the
// tighten rule: only a proven predictor (hit-rate EMA over enough resolved
// forecasts) may shorten TTT, and it backs off as soon as reliability dips.
const (
	tightenAbove       = 0.75
	tightenMinResolved = 8
	untightenBelow     = 0.6
)

// AdaptiveController is the per-UE closed-loop state machine. It is not
// safe for concurrent use; the simulator owns one per drive.
type AdaptiveController struct {
	cfg   AdaptiveConfig
	stats AdaptiveStats

	// Armed forecast: a confident prediction run currently standing.
	armed      bool
	armedType  cellular.HOType
	armedAt    time.Duration
	armedUntil time.Duration

	// Forecast reliability feedback.
	hitEMA   float64
	resolved int64

	// Last executed cell-changing handover, for ping-pong detection.
	lastSrc, lastDst string
	lastAt           time.Duration
	lastValid        bool

	// Stance machine: desired is what the evidence asks for, applied what
	// the network last pushed. ReconfigDue reconciles them under the
	// reconfiguration-rate budget.
	desired    int
	applied    int
	lastPP     time.Duration
	hasPP      bool
	lastReconf time.Duration
	reconfEver bool
}

// NewAdaptiveController creates a controller for one drive.
func NewAdaptiveController(cfg AdaptiveConfig) *AdaptiveController {
	if cfg.MinConfidence == 0 {
		cfg.MinConfidence = 0.4
	}
	if cfg.PrepCap == 0 {
		cfg.PrepCap = 2 * time.Second
	}
	if cfg.ExecCredit == 0 {
		cfg.ExecCredit = 0.4
	}
	if cfg.RelaxTTTScale == 0 {
		cfg.RelaxTTTScale = 2.0
	}
	if cfg.TightenTTTScale == 0 {
		cfg.TightenTTTScale = 0.5
	}
	if cfg.PingPongWindow == 0 {
		cfg.PingPongWindow = 5 * time.Second
	}
	if cfg.CalmAfter == 0 {
		cfg.CalmAfter = 30 * time.Second
	}
	if cfg.ReconfMinGap == 0 {
		cfg.ReconfMinGap = 2 * time.Second
	}
	return &AdaptiveController{cfg: cfg, hitEMA: 0.5}
}

// Stats returns the counters accumulated so far.
func (a *AdaptiveController) Stats() AdaptiveStats {
	s := a.stats
	s.FinalStance = a.applied
	return s
}

// resolve closes the armed forecast with a hit/miss verdict.
func (a *AdaptiveController) resolve(hit bool) {
	a.armed = false
	a.resolved++
	v := 0.0
	if hit {
		a.stats.Hits++
		v = 1.0
	} else {
		a.stats.Misses++
	}
	a.hitEMA = a.hitEMA*(1-hitEMAAlpha) + v*hitEMAAlpha
}

// OnForecast feeds the prediction standing at sim time now (one call per
// 20 Hz tick). Low-confidence and no-HO predictions only age the armed
// state; a confident prediction arms or re-arms it.
func (a *AdaptiveController) OnForecast(f Forecast, now time.Duration) {
	if a.armed && now > a.armedUntil {
		a.resolve(false) // forecast lapsed with no handover
	}
	if f.Type == cellular.HONone || f.Confidence < a.cfg.MinConfidence {
		return
	}
	hold := f.Lead
	if hold < armedHold {
		hold = armedHold
	}
	if a.armed {
		if a.armedType == f.Type {
			a.armedUntil = now + hold // still standing: extend
			return
		}
		a.resolve(false) // prediction flipped type without a handover
	}
	a.armed = true
	a.armedType = f.Type
	a.armedAt = now
	a.armedUntil = now + hold
	a.stats.Forecasts++
}

// OnHandover feeds one executed handover command (at its command time). It
// resolves the armed forecast and runs ping-pong detection on the
// cell-changing transition.
func (a *AdaptiveController) OnHandover(ev cellular.HandoverEvent, now time.Duration) {
	if a.armed {
		a.resolve(ev.Type == a.armedType)
	}
	if ev.SourceCell == "" || ev.TargetCell == "" || ev.SourceCell == ev.TargetCell {
		return
	}
	if a.lastValid && ev.SourceCell == a.lastDst && ev.TargetCell == a.lastSrc &&
		ev.Time-a.lastAt <= a.cfg.PingPongWindow {
		a.stats.PingPongs++
		a.lastPP = now
		a.hasPP = true
		if a.desired < maxRelaxStance {
			a.desired++
		}
	}
	a.lastSrc, a.lastDst, a.lastAt, a.lastValid = ev.SourceCell, ev.TargetCell, ev.Time, true
}

// ApplyPrep grants early-preparation credit to a scheduled handover of the
// given type: T1 shrinks by up to the standing-forecast age (preparation
// effectively started when the forecast armed), and T2 by ExecCredit once
// the forecast has stood for prepRamp. The credited savings are tallied.
func (a *AdaptiveController) ApplyPrep(typ cellular.HOType, now time.Duration, t1, t2 time.Duration) (time.Duration, time.Duration) {
	if !a.cfg.EarlyPrep || !a.armed || a.armedType != typ {
		return t1, t2
	}
	standing := now - a.armedAt
	if standing <= 0 {
		return t1, t2
	}
	if standing > a.cfg.PrepCap {
		standing = a.cfg.PrepCap
	}
	// T1 keeps a floor of 20%: even a fully prepared handover pays admission
	// and command signalling.
	save1 := standing
	if floor := t1 / 5; t1-save1 < floor {
		save1 = t1 - floor
	}
	if save1 < 0 {
		save1 = 0
	}
	frac := float64(standing) / float64(prepRamp)
	if frac > 1 {
		frac = 1
	}
	save2 := time.Duration(float64(t2) * a.cfg.ExecCredit * frac)
	if save1 == 0 && save2 == 0 {
		return t1, t2
	}
	a.stats.EarlyPreps++
	a.stats.PrepSavedMS += float64(save1+save2) / float64(time.Millisecond)
	return t1 - save1, t2 - save2
}

// SkipAheadActive reports whether SCG target selection should jump to the
// strongest adequate cell: a confident forecast of an SCG procedure stands.
func (a *AdaptiveController) SkipAheadActive() bool {
	if !a.cfg.SkipAhead || !a.armed {
		return false
	}
	switch a.armedType {
	case cellular.HOSCGA, cellular.HOSCGC, cellular.HOSCGM:
		return true
	}
	return false
}

// NoteSkipAhead records one target selection that actually changed cell.
func (a *AdaptiveController) NoteSkipAhead() { a.stats.SkipAheads++ }

// ReconfigDue reconciles the desired stance with the applied one. When a
// rewrite is due (and the reconfiguration-rate budget allows), it returns
// the TTT scale and hysteresis delta to apply to the base event table and
// records the change; otherwise ok is false.
func (a *AdaptiveController) ReconfigDue(now time.Duration) (tttScale, hystDelta float64, ok bool) {
	if !a.cfg.AdaptTTT {
		return 0, 0, false
	}
	// Calm unwinding: each CalmAfter without a ping-pong retires one relax
	// step.
	if a.desired > 0 && a.hasPP && now-a.lastPP > a.cfg.CalmAfter {
		a.desired--
		a.lastPP = now // restart the calm clock for the next step
	}
	// Tighten only on proven reliability and a ping-pong-free recent past —
	// and only when the spec's tighten stance actually changes something
	// (the default is neutral), so no reconfiguration is spent on a no-op.
	tightens := a.cfg.TightenTTTScale < 1 || a.cfg.TightenHysteresisDB > 0
	quiet := !a.hasPP || now-a.lastPP > 2*a.cfg.CalmAfter
	if tightens && a.desired == 0 && quiet && a.resolved >= tightenMinResolved && a.hitEMA >= tightenAbove {
		a.desired = -1
	}
	if a.desired < 0 && a.hitEMA < untightenBelow {
		a.desired = 0
	}
	if a.desired == a.applied {
		return 0, 0, false
	}
	if a.reconfEver && now-a.lastReconf < a.cfg.ReconfMinGap {
		return 0, 0, false
	}
	if a.desired > a.applied {
		a.stats.Relaxes++
	} else {
		a.stats.Tightens++
	}
	a.applied = a.desired
	a.lastReconf = now
	a.reconfEver = true
	a.stats.Reconfigs++
	scale, delta := a.StanceParams()
	return scale, delta, true
}

// StanceParams returns the TTT scale and hysteresis delta of the currently
// applied stance (scale 1, delta 0 at base).
func (a *AdaptiveController) StanceParams() (tttScale, hystDelta float64) {
	switch {
	case a.applied > 0:
		scale := 1.0
		for i := 0; i < a.applied; i++ {
			scale *= a.cfg.RelaxTTTScale
		}
		return scale, a.cfg.RelaxHysteresisDB * float64(a.applied)
	case a.applied < 0:
		return a.cfg.TightenTTTScale, -a.cfg.TightenHysteresisDB
	default:
		return 1, 0
	}
}

// AdaptEventConfigs applies a stance to a base event table: every TTT is
// scaled and snapped back into the 3GPP enumeration, every hysteresis
// shifted and clamped to the valid range. The base table is not modified.
func AdaptEventConfigs(base []cellular.EventConfig, tttScale, hystDelta float64) []cellular.EventConfig {
	out := make([]cellular.EventConfig, len(base))
	for i, c := range base {
		c.TTT = policygen.ScaleTTT(c.TTT, tttScale)
		c.Hysteresis += hystDelta
		if c.Hysteresis < 0 {
			c.Hysteresis = 0
		}
		if c.Hysteresis > policygen.MaxHysteresisDB {
			c.Hysteresis = policygen.MaxHysteresisDB
		}
		out[i] = c
	}
	return out
}
