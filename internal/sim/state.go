package sim

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/policygen"
	"repro/internal/radio"
	"repro/internal/ran"
	"repro/internal/throughput"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/ue"
)

// cellObs is one tick's observation of a cell.
type cellObs struct {
	cell *cellular.Cell
	rsrp float64
}

// scanObs is one in-range cell of a scan and its distance from the UE.
type scanObs struct {
	cell *cellular.Cell
	d    float64
}

// pendingHO is a handover in flight.
type pendingHO struct {
	typ       cellular.HOType
	cmdAt     time.Duration // HO command (start of T2)
	endAt     time.Duration // completion (end of T2)
	t1, t2    time.Duration
	targetLTE *cellular.Cell
	targetNR  *cellular.Cell
}

type state struct {
	cfg   Config
	route *geo.Polyline
	dep   *topology.Deployment
	rng   *rand.Rand
	prop  *radio.PropagationModel

	grid *cellGrid

	meas   *ue.MeasurementEngine
	engine *ran.Engine
	// events is the active measurement-configuration table: the portfolio
	// (or named-carrier) table at start, swapped wholesale by a policy
	// drift. Reconfigure call sites use this cached slice rather than
	// re-deriving from the carrier name, so drifted policies survive
	// handovers and RLF recovery.
	events []cellular.EventConfig
	// drifts are the pending mid-run policy rewrites, in time order;
	// nextDrift indexes the first not yet applied.
	drifts    []policygen.Drift
	nextDrift int
	// Per-cell processes are addressed by the deployment's state slot
	// (Deployment.StateSlot) instead of GlobalID-keyed maps: a slice load
	// replaces a fmt.Sprintf allocation plus a string hash per cell per
	// tick. Cells sharing a (tech, PCI) identity share a slot, exactly as
	// they shared a map entry. Slots initialise lazily (nil / !l3Valid) so
	// creation order — and with it every RNG sub-stream — matches the
	// map-based implementation.
	shadows []*radio.ShadowField
	// shadowStep is the AR(1) coefficient cache every shadow field of the
	// drive shares: the cells observed on one tick all step by one Δ.
	shadowStep radio.ShadowStep
	// l3 holds per-cell L3-filtered RSRP (3GPP layer-3 filtering smooths
	// fast fading before event evaluation, preventing measurement-noise
	// ping-pong); l3Valid marks slots that have seen a first observation.
	l3      []float64
	l3Valid []bool
	// blockage holds the per-mmWave-cell blockage process: abrupt deep
	// fades from bodies/vehicles/foliage are the defining propagation
	// behaviour of mmWave links and the trigger behind most of its
	// handover churn (§4.1's ~2 Gbps throughput drops).
	blockage []*blockState

	// Per-scan observation index: obsGen[i] == scanGen means the cell with
	// Index i was observed by the most recent scan and its filtered RSRP is
	// obsRSRP[i]. observed() is a pair of slice loads instead of a linear
	// walk of the obs slices.
	scanGen uint64
	obsGen  []uint64
	obsRSRP []float64

	lteCell *cellular.Cell
	nrCell  *cellular.Cell
	pending *pendingHO
	// Beam-training ramp: after attaching a *new* mmWave gNB (SCG addition
	// or change), beam search/refinement keeps throughput depressed for a
	// few seconds (§5.2's beam-management cost; §6.2's missing post-HO
	// improvement). Intra-gNB moves (SCGM) retain beam context.
	nrRampStart time.Duration
	nrRampUntil time.Duration

	now   time.Duration
	odo   float64
	log   *trace.Log
	ticks int

	// scratch per-tick observations per tech.
	obsLTE []cellObs
	obsNR  []cellObs
	// spare holds the sample of a tick the log does not store
	// (SampleEveryN > 1); the closed loop still consumes it.
	spare trace.Sample
	// interf is the interferer scratch buffer reused across rrsFor calls;
	// no caller retains the returned slice beyond one call.
	interf []float64
	// batch holds the scan's in-range cells, reused across ticks.
	batch []scanObs

	// Closed-loop state (nil/zero unless cfg.Adaptive is enabled — the
	// static path must stay bit-identical to the goldens). prog is the
	// embedded online Prognos; actrl the control-side consumer of its
	// forecasts. progRI/progHI are delivery cursors into log.Reports and
	// log.Handovers: handovers are appended at schedule time with their
	// future command timestamp, so cursor delivery naturally hands them to
	// the predictor at command time — the same order core.Replay uses.
	// adaptBase is the unscaled active event table the TTT/hysteresis
	// stance is applied over (it tracks policy drift; s.events holds the
	// stance-adjusted table the UE actually runs).
	prog      *core.Prognos
	actrl     *ran.AdaptiveController
	progRI    int
	progHI    int
	loopTicks []core.TickPrediction
	adaptBase []cellular.EventConfig
}

func newState(cfg Config, route *geo.Polyline, dep *topology.Deployment, rng *rand.Rand) *state {
	slots := dep.StateSlots()
	s := &state{
		cfg:      cfg,
		route:    route,
		dep:      dep,
		rng:      rng,
		prop:     radio.DefaultModel(),
		grid:     newCellGrid(dep.Cells, 1000),
		shadows:  make([]*radio.ShadowField, slots),
		l3:       make([]float64, slots),
		l3Valid:  make([]bool, slots),
		blockage: make([]*blockState, slots),
		obsGen:   make([]uint64, len(dep.Cells)),
		obsRSRP:  make([]float64, len(dep.Cells)),
		log: &trace.Log{
			Carrier:   cfg.Carrier.Name,
			Arch:      cfg.Arch,
			RouteKind: cfg.RouteKind.String(),
		},
	}
	var policy *ran.Policy
	if cfg.Scenario != nil {
		s.events = ran.EventConfigsFromPortfolio(&cfg.Scenario.Base, cfg.Arch)
		policy = ran.PolicyFromPortfolio(&cfg.Scenario.Base, cfg.Arch)
		s.drifts = cfg.Scenario.Drifts
	} else {
		s.events = ran.EventConfigsFor(cfg.Carrier.Name, cfg.Arch)
		policy = ran.PolicyFor(cfg.Carrier.Name, cfg.Arch)
	}
	me, err := ue.NewMeasurementEngine(s.events)
	if err != nil {
		panic("sim: " + err.Error())
	}
	s.meas = me
	s.engine = ran.NewEngine(policy)
	if cfg.Adaptive.Enabled() {
		s.actrl = ran.NewAdaptiveController(*cfg.Adaptive)
		s.adaptBase = s.events
		prog, err := core.New(core.Config{
			EventConfigs:       s.events,
			UseReportPredictor: true,
			Arch:               cfg.Arch,
		})
		if err != nil {
			panic("sim: " + err.Error())
		}
		s.prog = prog
	}
	return s
}

// applyDrift activates any scheduled policy rewrites whose time has come:
// the serving network pushes a fresh measurement configuration (resetting
// TTT state, as any reconfiguration does) and swaps its decision logic.
// The deployment is untouched — drift models a parameter push, not new
// towers.
func (s *state) applyDrift() {
	for s.nextDrift < len(s.drifts) && s.now >= s.drifts[s.nextDrift].At {
		p := &s.drifts[s.nextDrift].Portfolio
		s.nextDrift++
		s.events = ran.EventConfigsFromPortfolio(p, s.cfg.Arch)
		if s.actrl != nil {
			// Drift replaces the base table; the applied stance carries over
			// onto it, and the embedded predictor sniffs the fresh push.
			s.adaptBase = s.events
			if scale, delta := s.actrl.StanceParams(); scale != 1 || delta != 0 {
				s.events = ran.AdaptEventConfigs(s.adaptBase, scale, delta)
			}
			s.prog.SetEventConfigs(s.events)
		}
		s.engine.SetPolicy(ran.PolicyFromPortfolio(p, s.cfg.Arch))
		s.meas.Reconfigure(s.events)
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.Emit(obs.Event{
				Kind:    obs.EvPolicyDrift,
				SimMS:   float64(s.now) / float64(time.Millisecond),
				Carrier: s.cfg.Carrier.Name,
				Arch:    s.cfg.Arch.String(),
				Detail:  "policy rewrite -> " + p.SequenceString(),
			})
		}
	}
}

// shadowFor returns the per-cell correlated shadowing process.
func (s *state) shadowFor(c *cellular.Cell) *radio.ShadowField {
	slot := s.dep.StateSlot(c)
	f := s.shadows[slot]
	if f == nil {
		// Derive a per-cell deterministic sub-seed so drives are
		// reproducible regardless of initialisation order.
		sub := rand.New(rand.NewSource(s.cfg.Seed ^ int64(c.PCI)<<17 ^ int64(c.TowerID)<<3 ^ int64(c.Tech)))
		f = s.prop.NewShadowField(sub, &s.shadowStep)
		s.shadows[slot] = f
	}
	return f
}

// blockState is a per-cell two-state blockage process: the link alternates
// between clear and blocked, with exponential clear periods and short deep
// fades.
type blockState struct {
	rng          *rand.Rand
	blockedUntil time.Duration
	nextBlock    time.Duration
	primed       bool
}

// Blockage process parameters: a mmWave link is blocked on average every
// ~18 s for ~1.5 s, losing ~22 dB.
const (
	blockMeanGapS = 18.0
	blockMeanDurS = 1.5
	blockLossDB   = 22.0
)

// lossAt returns the blockage attenuation at time now.
func (b *blockState) lossAt(now time.Duration) float64 {
	if !b.primed {
		b.primed = true
		b.nextBlock = now + time.Duration(b.rng.ExpFloat64()*blockMeanGapS*float64(time.Second))
	}
	if now < b.blockedUntil {
		return blockLossDB
	}
	if now >= b.nextBlock {
		dur := time.Duration((0.5 + b.rng.ExpFloat64()*blockMeanDurS) * float64(time.Second))
		b.blockedUntil = now + dur
		b.nextBlock = b.blockedUntil + time.Duration(b.rng.ExpFloat64()*blockMeanGapS*float64(time.Second))
		return blockLossDB
	}
	return 0
}

// blockFor returns the blockage process of a mmWave cell.
func (s *state) blockFor(c *cellular.Cell) *blockState {
	slot := s.dep.StateSlot(c)
	b := s.blockage[slot]
	if b == nil {
		b = &blockState{rng: rand.New(rand.NewSource(s.cfg.Seed ^ int64(c.PCI)<<23 ^ int64(c.TowerID)<<5 ^ 0x5bd1))}
		s.blockage[slot] = b
	}
	return b
}

// observe computes the instantaneous RSRP of a cell at position p.
func (s *state) observe(c *cellular.Cell, p geo.Point) float64 {
	return s.observeAt(c, p, p.Dist(geo.Point{X: c.X, Y: c.Y}))
}

// observeAt is observe with the UE–cell distance already computed (the scan
// path needs the distance for range filtering anyway).
func (s *state) observeAt(c *cellular.Cell, p geo.Point, d float64) float64 {
	rsrp := s.prop.MedianRSRP(c.Band, c.TxPower, d)
	rsrp += s.dep.SectorGainDB(c, p)
	rsrp += s.shadowFor(c).At(s.odo)
	rsrp += s.prop.Fading(s.rng)
	if c.Band == cellular.BandMMWave {
		rsrp -= s.blockFor(c).lossAt(s.now)
	}
	return rsrp
}

// l3Alpha is the per-tick EMA coefficient of the 3GPP L3 measurement
// filter (filterCoefficient ≈ 4 at 20 Hz sampling).
const l3Alpha = 0.25

// filter applies L3 filtering to a raw observation of one cell.
func (s *state) filter(c *cellular.Cell, raw float64) float64 {
	slot := s.dep.StateSlot(c)
	if !s.l3Valid[slot] {
		s.l3Valid[slot] = true
		s.l3[slot] = raw
		return raw
	}
	v := s.l3[slot]*(1-l3Alpha) + raw*l3Alpha
	s.l3[slot] = v
	return v
}

// scan refreshes the per-tick observation lists for both technologies. The
// grid walk first collects the in-range cells with their distances into a
// reused batch; the observations then run over the batch in scan order,
// so every per-cell stream and the shared s.rng see the draws they always
// did.
func (s *state) scan(p geo.Point) {
	s.obsLTE = s.obsLTE[:0]
	s.obsNR = s.obsNR[:0]
	s.scanGen++
	s.batch = s.grid.inRange(s.batch[:0], p)
	for _, b := range s.batch {
		c := b.cell
		o := cellObs{cell: c, rsrp: s.filter(c, s.observeAt(c, p, b.d))}
		s.obsGen[c.Index] = s.scanGen
		s.obsRSRP[c.Index] = o.rsrp
		if c.Tech == cellular.TechLTE {
			s.obsLTE = append(s.obsLTE, o)
		} else {
			s.obsNR = append(s.obsNR, o)
		}
	}
}

// best returns the strongest observation, optionally excluding one cell.
func best(obs []cellObs, exclude *cellular.Cell) (cellObs, bool) {
	found := false
	var bst cellObs
	for _, o := range obs {
		if exclude != nil && o.cell == exclude {
			continue
		}
		if !found || o.rsrp > bst.rsrp {
			bst = o
			found = true
		}
	}
	return bst, found
}

// bestInBand returns the strongest observation within a band.
func bestInBand(obs []cellObs, band cellular.Band, exclude *cellular.Cell) (cellObs, bool) {
	found := false
	var bst cellObs
	for _, o := range obs {
		if o.cell.Band != band || (exclude != nil && o.cell == exclude) {
			continue
		}
		if !found || o.rsrp > bst.rsrp {
			bst = o
			found = true
		}
	}
	return bst, found
}

// addThreshold is the minimum RSRP for an NR band to be considered for SCG
// addition; the band-priority search below prefers the highest-capacity
// band that clears its threshold (mmWave where available, as carriers do).
func addThreshold(band cellular.Band) float64 {
	switch band {
	case cellular.BandMMWave:
		return -100
	case cellular.BandMid:
		return -102
	default:
		return -104
	}
}

// nrCandidate picks the NR cell an SCG addition or change would target:
// band-priority selection of the *first adequate* cell (above the band's
// add threshold), excluding the currently attached NR cell. Picking an
// adequate rather than the optimal target reproduces the §6.2 finding that
// the independent release/add legs of an SCG change are decided without
// end-to-end signal comparison.
func (s *state) nrCandidate() (cellObs, bool) {
	// One pass over the observations records the first adequate cell per
	// band (the seed implementation re-walked the slice once per band);
	// selection is unchanged: highest-priority band wins, first adequate
	// cell in scan order within it.
	var cand [3]cellObs
	var have [3]bool
	for _, o := range s.obsNR {
		b := o.cell.Band
		if int(b) >= len(have) || have[b] || o.cell == s.nrCell {
			continue
		}
		if o.rsrp > addThreshold(b) {
			cand[b] = o
			have[b] = true
		}
	}
	for _, band := range [...]cellular.Band{cellular.BandMMWave, cellular.BandMid, cellular.BandLow} {
		if have[band] {
			return cand[band], true
		}
	}
	return cellObs{}, false
}

// nrStrongest is nrCandidate's skip-ahead variant: within the
// highest-priority band that has any adequate cell, it picks the
// *strongest* one — the cell a handover chain would eventually settle on —
// instead of the first adequate in scan order. Only the adaptive layer
// uses it; the static path keeps the §6.2 independent-legs behaviour.
func (s *state) nrStrongest() (cellObs, bool) {
	var cand [3]cellObs
	var have [3]bool
	for _, o := range s.obsNR {
		b := o.cell.Band
		if int(b) >= len(have) || o.cell == s.nrCell {
			continue
		}
		if o.rsrp > addThreshold(b) && (!have[b] || o.rsrp > cand[b].rsrp) {
			cand[b] = o
			have[b] = true
		}
	}
	for _, band := range [...]cellular.Band{cellular.BandMMWave, cellular.BandMid, cellular.BandLow} {
		if have[band] {
			return cand[band], true
		}
	}
	return cellObs{}, false
}

// lookup finds the cell matching a technology and PCI nearest to p (PCIs
// wrap spatially, as in real deployments). The deployment's (tech, PCI)
// index narrows the scan to the few cells sharing the identity.
func (s *state) lookup(tech cellular.Tech, pci cellular.PCI, p geo.Point) *cellular.Cell {
	var bst *cellular.Cell
	bd := math.MaxFloat64
	for _, c := range s.dep.CellsWithPCI(tech, pci) {
		d := p.Dist(geo.Point{X: c.X, Y: c.Y})
		if d < bd {
			bd = d
			bst = c
		}
	}
	return bst
}

// observed returns the RSRP of a specific cell as of the most recent scan,
// recomputing if it was out of scan range. (Between applyPending and the
// tick's scan this intentionally serves the previous tick's observation,
// exactly like the obs-slice walk it replaces.)
func (s *state) observed(c *cellular.Cell, p geo.Point) float64 {
	if c == nil {
		return -200
	}
	if s.obsGen[c.Index] == s.scanGen {
		return s.obsRSRP[c.Index]
	}
	return s.observe(c, p)
}

func (s *state) run() {
	total := s.route.Length()
	if s.cfg.RouteKind == geo.RouteCityLoop {
		total *= float64(s.cfg.Laps)
	}
	dt := trace.SamplePeriod
	step := s.cfg.SpeedMPS * dt.Seconds()
	// The loop below runs ⌈total/step⌉ ticks, one more at most through
	// rounding of odo, and the log stores every SampleEveryN-th of them.
	if n := total / step; n >= 0 && n < math.MaxInt32 {
		s.log.Samples = make([]trace.Sample, 0, (int(n)+2)/s.cfg.SampleEveryN+1)
	}

	// Initial attachment.
	s.scan(s.route.At(0))
	if s.cfg.Arch == cellular.ArchSA {
		if o, ok := best(s.obsNR, nil); ok {
			s.nrCell = o.cell
		}
	} else {
		if o, ok := best(s.obsLTE, nil); ok {
			s.lteCell = o.cell
		}
	}

	for s.odo = 0; s.odo < total; s.odo += step {
		lapPos := math.Mod(s.odo, s.route.Length())
		p := s.route.At(lapPos)
		s.tick(p, dt)
		s.now += dt
		s.ticks++
	}
}

func (s *state) tick(p geo.Point, dt time.Duration) {
	s.applyDrift()

	// Complete an in-flight handover.
	if s.pending != nil && s.now >= s.pending.endAt {
		s.applyPending(p)
	}

	s.scan(p)
	s.recoverIfLost(p)

	in := s.buildMeasInput(p)
	reports := s.meas.Tick(in, dt)
	for _, mr := range reports {
		s.log.Reports = append(s.log.Reports, mr)
		s.maybeDecide(mr, p)
	}

	smp := s.logSample(p, &in)
	if s.actrl != nil {
		s.closeLoop(*smp)
	}
}

// closeLoop advances the embedded predictor by one tick and lets its
// forecast steer the controller: reports and handovers logged up to the
// sample's time are delivered (command-time order, exactly as core.Replay
// would), the fresh sample is observed, and the resulting prediction is
// distilled into a ran.Forecast. A due stance change rewrites the live
// measurement configuration — the prediction loop acting on the RAN.
func (s *state) closeLoop(smp trace.Sample) {
	for s.progRI < len(s.log.Reports) && s.log.Reports[s.progRI].Time <= smp.Time {
		s.prog.OnReport(s.log.Reports[s.progRI])
		s.progRI++
	}
	for s.progHI < len(s.log.Handovers) && s.log.Handovers[s.progHI].Time <= smp.Time {
		ho := s.log.Handovers[s.progHI]
		s.prog.OnHandover(ho)
		s.actrl.OnHandover(ho, s.now)
		s.progHI++
	}
	s.prog.OnSample(smp)
	pred := s.prog.Predict()
	s.loopTicks = append(s.loopTicks, core.TickPrediction{Time: smp.Time, Type: pred.Type, PatternKey: pred.PatternKey})
	conf := 0.0
	if pred.Type != cellular.HONone {
		conf = pred.Similarity * pred.Pattern.Reliability()
	}
	s.actrl.OnForecast(ran.Forecast{Type: pred.Type, Confidence: conf, Lead: pred.Lead}, s.now)
	if scale, delta, ok := s.actrl.ReconfigDue(s.now); ok {
		s.events = ran.AdaptEventConfigs(s.adaptBase, scale, delta)
		s.meas.Reconfigure(s.events)
		s.prog.SetEventConfigs(s.events)
	}
}

// recoverIfLost reattaches a UE whose serving cell has fallen below the
// radio-link-failure floor (kept rare by topology density; not counted as a
// handover, mirroring how RLF re-establishment is distinct from HO).
func (s *state) recoverIfLost(p geo.Point) {
	const rlfFloor = -127.0
	if s.cfg.Arch == cellular.ArchSA {
		if s.nrCell == nil || s.observed(s.nrCell, p) < rlfFloor {
			if o, ok := best(s.obsNR, s.nrCell); ok {
				s.nrCell = o.cell
				s.meas.Reconfigure(s.events)
			}
		}
		return
	}
	if s.lteCell == nil || s.observed(s.lteCell, p) < rlfFloor {
		if o, ok := best(s.obsLTE, s.lteCell); ok {
			s.lteCell = o.cell
			s.meas.Reconfigure(s.events)
		}
	}
}

func (s *state) buildMeasInput(p geo.Point) ue.Input {
	in := ue.Input{Time: s.now}
	if s.lteCell != nil {
		srv := s.observed(s.lteCell, p)
		in.LTE = ue.Meas{
			Valid:       true,
			ServingPCI:  s.lteCell.PCI,
			ServingRSRP: srv,
			ServingRRS:  s.rrsFor(s.lteCell, srv),
		}
		// A3 is intra-frequency: the UE compares against neighbours on the
		// serving band (inter-band moves happen via A2/A5 and RLF paths).
		if o, ok := bestInBand(s.obsLTE, s.lteCell.Band, s.lteCell); ok {
			in.LTE.NeighborValid = true
			in.LTE.NeighborPCI = o.cell.PCI
			in.LTE.NeighborRSRP = o.rsrp
		}
	}
	if s.nrCell != nil {
		srv := s.observed(s.nrCell, p)
		in.NR = ue.Meas{
			Valid:       true,
			ServingPCI:  s.nrCell.PCI,
			ServingRSRP: srv,
			ServingRRS:  s.rrsFor(s.nrCell, srv),
		}
		if o, ok := bestInBand(s.obsNR, s.nrCell.Band, s.nrCell); ok {
			in.NR.NeighborValid = true
			in.NR.NeighborPCI = o.cell.PCI
			in.NR.NeighborRSRP = o.rsrp
		}
	}
	if s.cfg.Arch == cellular.ArchNSA {
		// B1 watches the best NR cell other than the attached one — both
		// for initial SCG addition and for converting a weak-SCG release
		// into an SCG change toward a different gNB.
		if o, ok := s.nrCandidate(); ok {
			in.NRCandidate = ue.Meas{Valid: true, ServingPCI: o.cell.PCI, ServingRSRP: o.rsrp}
		}
	}
	return in
}

// rrsFor derives the full RRS triple for a serving observation.
func (s *state) rrsFor(c *cellular.Cell, rsrp float64) cellular.RRS {
	interf := s.interferers(c, rsrp)
	return cellular.RRS{
		RSRP: rsrp,
		RSRQ: radio.RSRQFromRSRP(rsrp, len(interf)),
		SINR: s.prop.SINR(rsrp, interf),
	}
}

// interferers collects co-layer cells within 20 dB of the serving RSRP.
// The returned slice aliases a scratch buffer that the next call reuses;
// callers must consume it before calling again (rrsFor does).
func (s *state) interferers(c *cellular.Cell, servingRSRP float64) []float64 {
	obs := s.obsLTE
	if c.Tech == cellular.TechNR {
		obs = s.obsNR
	}
	out := s.interf[:0]
	for _, o := range obs {
		if o.cell == c || o.cell.Band != c.Band {
			continue
		}
		if o.rsrp > servingRSRP-20 {
			out = append(out, o.rsrp)
		}
	}
	s.interf = out
	return out
}

// maybeDecide feeds an MR to the serving cell and schedules the handover if
// the policy fires.
func (s *state) maybeDecide(mr cellular.MeasurementReport, p geo.Point) {
	ctx := ran.Context{Arch: s.cfg.Arch, NRAttached: s.nrCell != nil}
	if mr.Tech == cellular.TechNR && mr.Event == cellular.EventA3 && s.nrCell != nil {
		if tgt := s.lookup(cellular.TechNR, mr.NeighborPCI, p); tgt != nil {
			ctx.TargetSameGNB = tgt.TowerID == s.nrCell.TowerID
		}
	}
	dec := s.engine.OnReport(mr, ctx)
	if dec == nil {
		return
	}
	s.schedule(dec, p)
}

// schedule creates the pending handover for a decision, sampling stage
// durations and logging the HandoverEvent.
func (s *state) schedule(dec *ran.Decision, p geo.Point) {
	ho := &pendingHO{typ: dec.Type}

	var target *cellular.Cell
	switch dec.Type {
	case cellular.HOLTEH, cellular.HOMNBH:
		target = s.lookup(cellular.TechLTE, dec.Trigger.NeighborPCI, p)
		if target == nil || target == s.lteCell {
			if o, ok := best(s.obsLTE, s.lteCell); ok {
				target = o.cell
			}
		}
		ho.targetLTE = target
		if ho.targetLTE == nil {
			return
		}
	case cellular.HOSCGA:
		target = s.lookup(cellular.TechNR, dec.Trigger.NeighborPCI, p)
		if target == nil {
			if o, ok := s.nrCandidate(); ok {
				target = o.cell
			}
		}
		// Skip-ahead: a confident SCG forecast stands, so jump straight to
		// the predicted final cell — the strongest adequate one — instead of
		// the first adequate cell the independent-legs behaviour would pick
		// (and then correct with a follow-up SCG change).
		if s.actrl != nil && s.actrl.SkipAheadActive() {
			if o, ok := s.nrStrongest(); ok && o.cell != target {
				target = o.cell
				s.actrl.NoteSkipAhead()
			}
		}
		if target == nil {
			return // candidate vanished; abort silently
		}
		ho.targetNR = target
	case cellular.HOSCGM, cellular.HOSCGC, cellular.HOMCGH:
		target = s.lookup(cellular.TechNR, dec.Trigger.NeighborPCI, p)
		if target == nil || target == s.nrCell {
			if o, ok := best(s.obsNR, s.nrCell); ok {
				target = o.cell
			}
		}
		if target == nil {
			return
		}
		ho.targetNR = target
	case cellular.HOSCGR:
		// no target
	}

	band := s.hoBand(ho)
	coloc := s.coLocated(ho)
	t1, t2 := ran.SampleDurations(ran.DurationParams{Type: dec.Type, Band: band, CoLocated: coloc}, s.rng)
	if s.actrl != nil {
		// Early-prep: a standing forecast of this type means preparation
		// effectively began when the forecast armed, shrinking T1 — and,
		// because the target came pre-configured, part of the execution
		// stage T2 (the interruption the UE actually feels).
		t1, t2 = s.actrl.ApplyPrep(dec.Type, s.now, t1, t2)
	}
	ho.t1, ho.t2 = t1, t2
	ho.cmdAt = dec.At + t1
	ho.endAt = ho.cmdAt + t2
	s.pending = ho
	s.engine.Begin(ho.endAt)

	s.logHO(ho, band, coloc)
}

// hoBand returns the band a handover is attributed to: the NR data-plane
// band for 5G procedures, the LTE serving band otherwise.
func (s *state) hoBand(ho *pendingHO) cellular.Band {
	switch {
	case ho.targetNR != nil:
		return ho.targetNR.Band
	case ho.typ.Is5G() && s.nrCell != nil:
		return s.nrCell.Band
	case s.lteCell != nil:
		return s.lteCell.Band
	case s.nrCell != nil:
		return s.nrCell.Band
	default:
		return cellular.BandMid
	}
}

// coLocated reports whether the NSA HO's gNB (origin or destination) shares
// a tower with the LTE anchor.
func (s *state) coLocated(ho *pendingHO) bool {
	if s.cfg.Arch != cellular.ArchNSA || s.lteCell == nil {
		return false
	}
	if ho.targetNR != nil && ho.targetNR.TowerID == s.lteCell.TowerID {
		return true
	}
	if s.nrCell != nil && s.nrCell.TowerID == s.lteCell.TowerID {
		return true
	}
	return false
}

func (s *state) logHO(ho *pendingHO, band cellular.Band, coloc bool) {
	ev := cellular.HandoverEvent{
		Time:      ho.cmdAt,
		Type:      ho.typ,
		Arch:      s.cfg.Arch,
		Band:      band,
		T1:        ho.t1,
		T2:        ho.t2,
		CoLocated: coloc,
		DistanceM: s.odo,
		Signaling: ran.SignalingFor(ho.typ, band, s.rng),
	}
	switch {
	case ho.targetLTE != nil:
		if s.lteCell != nil {
			ev.SourcePCI = s.lteCell.PCI
			ev.SourceCell = s.lteCell.GlobalID()
		}
		ev.TargetPCI = ho.targetLTE.PCI
		ev.TargetCell = ho.targetLTE.GlobalID()
	case ho.targetNR != nil:
		if s.nrCell != nil {
			ev.SourcePCI = s.nrCell.PCI
			ev.SourceCell = s.nrCell.GlobalID()
		}
		ev.TargetPCI = ho.targetNR.PCI
		ev.TargetCell = ho.targetNR.GlobalID()
	case s.nrCell != nil: // SCGR
		ev.SourcePCI = s.nrCell.PCI
		ev.SourceCell = s.nrCell.GlobalID()
	}
	s.log.Handovers = append(s.log.Handovers, ev)
	s.traceHO(ev)
}

// traceHO mirrors one scheduled handover into the drive's tracer (when
// one is attached) as the same obs.EvHOTrigger event the serving daemon
// emits. MRSeq is the measurement-report ordinal at decision time, tying
// the trigger back to the MR sequence that fired the policy.
func (s *state) traceHO(ev cellular.HandoverEvent) {
	if s.cfg.Tracer == nil {
		return
	}
	s.cfg.Tracer.Emit(obs.Event{
		Kind:    obs.EvHOTrigger,
		SimMS:   float64(ev.Time) / float64(time.Millisecond),
		Carrier: s.cfg.Carrier.Name,
		Arch:    s.cfg.Arch.String(),
		HOType:  ev.Type.String(),
		Source:  ev.SourceCell,
		Target:  ev.TargetCell,
		MRSeq:   int64(len(s.log.Reports)),
	})
}

// applyPending commits the attachment change at the end of T2, chaining the
// forced SCG release that follows an NSA anchor handover (§6.1).
func (s *state) applyPending(p geo.Point) {
	ho := s.pending
	s.pending = nil
	switch ho.typ {
	case cellular.HOLTEH:
		if ho.targetLTE != nil {
			s.lteCell = ho.targetLTE
		}
	case cellular.HOMNBH:
		if ho.targetLTE != nil {
			s.lteCell = ho.targetLTE
		}
		// NSA cannot carry the SCG across anchors: the 5G leg is released
		// and (where coverage allows) re-added — an SCG Change from the
		// procedure-count perspective, with a real data-plane detach gap
		// that breaks the 5G cell's dwell (§6.1's effective-coverage
		// reduction).
		if s.nrCell != nil {
			s.chainSCGMobility(p)
			return
		}
	case cellular.HOSCGA, cellular.HOSCGM, cellular.HOSCGC, cellular.HOMCGH:
		if ho.targetNR != nil {
			newGNB := s.nrCell == nil || ho.targetNR.TowerID != s.nrCell.TowerID
			s.nrCell = ho.targetNR
			if newGNB && ho.targetNR.Band == cellular.BandMMWave {
				s.nrRampStart = s.now
				s.nrRampUntil = s.now + beamTrainingDur
			}
		}
	case cellular.HOSCGR:
		s.nrCell = nil
	}
	// New serving cell pushes fresh measurement configuration (Fig. 1
	// step 1), resetting TTT state.
	s.meas.Reconfigure(s.events)
}

// beamTrainingDur is how long a freshly attached mmWave gNB needs to
// converge its beam; capacity ramps from beamTrainingFloor to full over
// this window.
const beamTrainingDur = 3 * time.Second

// beamTrainingFloor is the initial capacity fraction right after attach.
const beamTrainingFloor = 0.3

// nrRampFactor returns the current beam-training capacity multiplier.
func (s *state) nrRampFactor() float64 {
	if s.nrCell == nil || s.nrCell.Band != cellular.BandMMWave || s.now >= s.nrRampUntil {
		return 1
	}
	frac := float64(s.now-s.nrRampStart) / float64(beamTrainingDur)
	return beamTrainingFloor + (1-beamTrainingFloor)*frac
}

// chainSCGMobility schedules the SCG procedure forced by an anchor change:
// an SCG Change (release + re-add, one procedure) when NR coverage persists,
// otherwise a plain SCG Release. The NR leg detaches immediately, so the
// old 5G cell's dwell ends even if the re-add lands on the same PCI.
func (s *state) chainSCGMobility(p geo.Point) {
	band := cellular.BandLow
	if s.nrCell != nil {
		band = s.nrCell.Band
	}
	coloc := s.nrCell != nil && s.lteCell != nil && s.nrCell.TowerID == s.lteCell.TowerID
	srcNR := s.nrCell
	s.nrCell = nil // release happens up front

	typ := cellular.HOSCGR
	var target *cellular.Cell
	var targetRSRP float64
	skipAhead := s.actrl != nil && s.actrl.SkipAheadActive()
	if skipAhead {
		// Skip-ahead: re-add the predicted final cell (strongest adequate)
		// rather than the first adequate one.
		if o, ok := s.nrStrongest(); ok {
			typ = cellular.HOSCGC
			target = o.cell
			targetRSRP = o.rsrp
		}
	} else if o, ok := s.nrCandidate(); ok {
		typ = cellular.HOSCGC
		target = o.cell
		targetRSRP = o.rsrp
	}
	if srcNR != nil {
		// The released cell itself competes for the re-add: the new anchor
		// usually re-attaches the strongest adequate gNB, which is often
		// the one just released (§6.1's effective-coverage mechanism still
		// holds — the dwell is broken by the release gap).
		if rsrp := s.observed(srcNR, p); rsrp > addThreshold(srcNR.Band) && (target == nil || rsrp > targetRSRP) {
			typ = cellular.HOSCGC
			target = srcNR
		}
	}
	if skipAhead && target != nil {
		if o, ok := s.nrCandidate(); !ok || o.cell != target {
			s.actrl.NoteSkipAhead()
		}
	}
	if target != nil {
		band = target.Band
	}

	t1, t2 := ran.SampleDurations(ran.DurationParams{Type: typ, Band: band, CoLocated: coloc}, s.rng)
	ho := &pendingHO{
		typ:      typ,
		t1:       t1,
		t2:       t2,
		cmdAt:    s.now + t1,
		targetNR: target,
	}
	ho.endAt = ho.cmdAt + t2
	s.pending = ho
	s.engine.Begin(ho.endAt)

	ev := cellular.HandoverEvent{
		Time:      ho.cmdAt,
		Type:      typ,
		Arch:      s.cfg.Arch,
		Band:      band,
		T1:        t1,
		T2:        t2,
		CoLocated: coloc,
		DistanceM: s.odo,
		Signaling: ran.SignalingFor(typ, band, s.rng),
	}
	if srcNR != nil {
		ev.SourcePCI = srcNR.PCI
		ev.SourceCell = srcNR.GlobalID()
	}
	if target != nil {
		ev.TargetPCI = target.PCI
		ev.TargetCell = target.GlobalID()
	}
	s.log.Handovers = append(s.log.Handovers, ev)
	s.traceHO(ev)
}

// logSample records the 20 Hz cross-layer sample in place in the log and
// returns it (the closed loop consumes every tick's sample even when
// SampleEveryN thins what the trace stores; an unstored one lives in
// spare). in is the tick's measurement input.
func (s *state) logSample(p geo.Point, in *ue.Input) *trace.Sample {
	var smp *trace.Sample
	if s.ticks%s.cfg.SampleEveryN == 0 {
		s.log.Samples = append(s.log.Samples, trace.Sample{})
		smp = &s.log.Samples[len(s.log.Samples)-1]
	} else {
		s.spare = trace.Sample{}
		smp = &s.spare
	}
	inHO := s.pending != nil && s.now >= s.pending.cmdAt && s.now < s.pending.endAt
	hoType := cellular.HONone
	if inHO {
		hoType = s.pending.typ
	}
	smp.Time = s.now
	smp.X, smp.Y = p.X, p.Y
	smp.OdometerM = s.odo
	smp.SpeedMPS = s.cfg.SpeedMPS
	smp.Arch = s.cfg.Arch
	smp.InHO = inHO
	smp.HOType = hoType

	var lteMbps, nrMbps float64
	if s.lteCell != nil {
		rrs := s.sampleRRS(s.lteCell, in.LTE.ServingRRS, p)
		smp.ServingLTE = trace.CellObs{PCI: s.lteCell.PCI, Tech: cellular.TechLTE, Band: s.lteCell.Band, RSRP: rrs.RSRP, RSRQ: rrs.RSRQ, SINR: rrs.SINR, Valid: true}
		lteMbps = throughput.CapacityMbps(cellular.TechLTE, s.lteCell.Band, rrs.SINR)
		if o, ok := bestInBand(s.obsLTE, s.lteCell.Band, s.lteCell); ok {
			smp.NeighborLTE = trace.CellObs{PCI: o.cell.PCI, Tech: cellular.TechLTE, Band: o.cell.Band, RSRP: o.rsrp, Valid: true}
		}
	}
	if s.nrCell != nil {
		rrs := s.sampleRRS(s.nrCell, in.NR.ServingRRS, p)
		smp.ServingNR = trace.CellObs{PCI: s.nrCell.PCI, Tech: cellular.TechNR, Band: s.nrCell.Band, RSRP: rrs.RSRP, RSRQ: rrs.RSRQ, SINR: rrs.SINR, Valid: true}
		nrMbps = throughput.CapacityMbps(cellular.TechNR, s.nrCell.Band, rrs.SINR) * s.nrRampFactor()
		if o, ok := bestInBand(s.obsNR, s.nrCell.Band, s.nrCell); ok {
			smp.NeighborNR = trace.CellObs{PCI: o.cell.PCI, Tech: cellular.TechNR, Band: o.cell.Band, RSRP: o.rsrp, Valid: true}
		}
	} else if s.cfg.Arch == cellular.ArchNSA {
		if o, ok := s.nrCandidate(); ok {
			smp.NeighborNR = trace.CellObs{PCI: o.cell.PCI, Tech: cellular.TechNR, Band: o.cell.Band, RSRP: o.rsrp, Valid: true}
		}
	}

	var intr throughput.Interruption
	if inHO {
		intr = throughput.InterruptionFor(hoType)
	}
	switch s.cfg.Arch {
	case cellular.ArchSA:
		smp.TputMbps = throughput.Effective(throughput.ModeSCG, 0, nrMbps, intr, true)
	case cellular.ArchNSA:
		smp.TputMbps = throughput.Effective(s.cfg.BearerMode, lteMbps, nrMbps, intr, s.nrCell != nil)
	default:
		smp.TputMbps = throughput.Effective(throughput.ModeSCG, lteMbps, 0, intr, false)
		if intr.LTE {
			smp.TputMbps = 0
		} else {
			smp.TputMbps = lteMbps
		}
	}
	return smp
}

// sampleRRS returns a serving cell's RRS for the tick's sample. A cell
// from this tick's scan reuses measured, the RRS buildMeasInput computed:
// the cell, the observation slices and the RSRP are the ones it saw, and
// maybeDecide changes neither serving cell. A cell outside the scan is
// observed afresh, with its own shadowing and fading draws.
func (s *state) sampleRRS(c *cellular.Cell, measured cellular.RRS, p geo.Point) cellular.RRS {
	if s.obsGen[c.Index] == s.scanGen {
		return measured
	}
	return s.rrsFor(c, s.observe(c, p))
}
