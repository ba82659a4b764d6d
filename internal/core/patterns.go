// Package core implements Prognos, the paper's handover-prediction system
// (§7): a two-stage pipeline that first forecasts the measurement reports a
// UE will send (report predictor) and then matches them against online-
// learned, carrier-specific handover decision patterns (decision learner) to
// predict the next handover's type, timing, and throughput impact
// (ho_score). It works from UE-observable signals only — RRS readings,
// RRC-sniffed measurement reports and HO commands — with no carrier
// cooperation.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/cellular"
)

// Pattern is one learned decision rule: a sequence of measurement-report
// keys that repeatedly precedes a specific handover type (§7.2's "unique
// sequence of MRs repeatedly triggering a specific type of HO").
type Pattern struct {
	// Seq is the MR-key sequence, oldest first (e.g. ["A2","A5"]).
	Seq []string
	// HO is the handover type the sequence triggers.
	HO cellular.HOType
	// Support counts how many phases matched this pattern.
	Support int
	// LastPhase is the phase counter value when the pattern was last seen,
	// for freshness-based eviction.
	LastPhase int
	// Hits / Misses accumulate online prediction feedback: a hit when a
	// prediction made from this pattern was followed by the predicted HO,
	// a miss when it expired unfulfilled or the wrong HO arrived. This is
	// the learner's self-applied sanity check (§7.1's "explainable system
	// ... apply sanity checks during prediction process").
	Hits, Misses int
}

// Reliability is the Laplace-smoothed empirical precision of predictions
// from this pattern ((hits+1)/(trials+2); 0.5 before any feedback, pulled
// toward the evidence as trials accumulate).
func (p Pattern) Reliability() float64 {
	return float64(p.Hits+1) / float64(p.Hits+p.Misses+2)
}

// Key returns the canonical identity of the pattern.
func (p Pattern) Key() string { return strings.Join(p.Seq, ",") + "->" + p.HO.String() }

// String renders the pattern in the paper's notation, e.g.
// "[A2,A5,LTEH] (support=12)".
func (p Pattern) String() string {
	return fmt.Sprintf("[%s,%s] (support=%d)", strings.Join(p.Seq, ","), p.HO, p.Support)
}

// LearnerConfig tunes the online decision learner.
type LearnerConfig struct {
	// FreshnessPhases evicts patterns not seen for this many phases
	// (default 200).
	FreshnessPhases int
	// MaxPatterns caps the store; the stalest/least-supported patterns are
	// evicted first (default 256).
	MaxPatterns int
	// MaxSuffixLen bounds the suffix patterns mined from each phase
	// (default 4). Mining suffixes of the phase's MR sequence is the
	// online adaptation of prefixSpan's projected-prefix growth: frequent
	// short trigger sequences accumulate support even when phases carry
	// extra interleaved reports.
	MaxSuffixLen int
}

func (c LearnerConfig) withDefaults() LearnerConfig {
	if c.FreshnessPhases == 0 {
		c.FreshnessPhases = 200
	}
	if c.MaxPatterns == 0 {
		c.MaxPatterns = 256
	}
	if c.MaxSuffixLen == 0 {
		c.MaxSuffixLen = 4
	}
	return c
}

// patEntry is one anchor-index slot: the stored pattern plus its canonical
// key (the same interned string the patterns map is keyed by, so match can
// hand out the identity without re-joining the sequence).
type patEntry struct {
	key string
	pat *Pattern
}

// DecisionLearner learns carrier handover logic online from the stream of
// (MR sequence, HO command) phases.
type DecisionLearner struct {
	cfg      LearnerConfig
	patterns map[string]*Pattern
	// byLast indexes patterns by their final (anchor) key. Match only ever
	// considers patterns anchored at the sequence's newest evidence, so the
	// hot path scans one short bucket instead of the whole store.
	byLast map[string][]patEntry
	phase  int
	// learned/evicted count lifetime pattern churn (§7.3 reports these
	// rates).
	learned int
	evicted int
}

// NewDecisionLearner creates a learner.
func NewDecisionLearner(cfg LearnerConfig) *DecisionLearner {
	return &DecisionLearner{
		cfg:      cfg.withDefaults(),
		patterns: make(map[string]*Pattern),
		byLast:   make(map[string][]patEntry),
	}
}

// index adds a pattern to the anchor index (replacing any entry already
// holding its key, e.g. a Bootstrap overwrite).
func (l *DecisionLearner) index(key string, p *Pattern) {
	last := p.Seq[len(p.Seq)-1]
	bucket := l.byLast[last]
	for i := range bucket {
		if bucket[i].key == key {
			bucket[i].pat = p
			return
		}
	}
	l.byLast[last] = append(bucket, patEntry{key: key, pat: p})
}

// unindex removes a pattern from the anchor index.
func (l *DecisionLearner) unindex(key string, p *Pattern) {
	last := p.Seq[len(p.Seq)-1]
	bucket := l.byLast[last]
	for i := range bucket {
		if bucket[i].key == key {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(l.byLast, last)
		return
	}
	l.byLast[last] = bucket
}

// ObservePhase consumes one completed phase: the MR keys observed since the
// previous handover and the handover type that ended the phase. Every
// suffix of the sequence (up to MaxSuffixLen) is credited, then stale
// patterns are evicted.
func (l *DecisionLearner) ObservePhase(keys []string, ho cellular.HOType) {
	if ho == cellular.HONone || len(keys) == 0 {
		return
	}
	l.phase++
	// Gentle feedback decay: reliability reflects recent behaviour, so a
	// pattern punished by early bad luck (or a temporary radio anomaly)
	// can rehabilitate.
	if l.phase%64 == 0 {
		for _, p := range l.patterns {
			p.Hits -= p.Hits / 4
			p.Misses -= p.Misses / 4
		}
	}
	maxLen := l.cfg.MaxSuffixLen
	if maxLen > len(keys) {
		maxLen = len(keys)
	}
	for n := 1; n <= maxLen; n++ {
		seq := keys[len(keys)-n:]
		key := strings.Join(seq, ",") + "->" + ho.String()
		if p, ok := l.patterns[key]; ok {
			p.Support++
			p.LastPhase = l.phase
		} else {
			cp := make([]string, n)
			copy(cp, seq)
			p := &Pattern{Seq: cp, HO: ho, Support: 1, LastPhase: l.phase}
			l.patterns[key] = p
			l.index(key, p)
			l.learned++
		}
	}
	l.evict()
}

// evict removes stale patterns and enforces the store cap.
func (l *DecisionLearner) evict() {
	for k, p := range l.patterns {
		if l.phase-p.LastPhase > l.cfg.FreshnessPhases {
			delete(l.patterns, k)
			l.unindex(k, p)
			l.evicted++
		}
	}
	if len(l.patterns) <= l.cfg.MaxPatterns {
		return
	}
	ps := l.Patterns()
	sort.Slice(ps, func(i, j int) bool {
		// Evict lowest support first, then stalest.
		if ps[i].Support != ps[j].Support {
			return ps[i].Support < ps[j].Support
		}
		return ps[i].LastPhase < ps[j].LastPhase
	})
	for _, p := range ps[:len(ps)-l.cfg.MaxPatterns] {
		key := p.Key()
		if stored, ok := l.patterns[key]; ok {
			delete(l.patterns, key)
			l.unindex(key, stored)
			l.evicted++
		}
	}
}

// Bootstrap pre-loads patterns (e.g. the most frequent pattern per HO type
// from a prior dataset), addressing the cold-start problem of §9/Fig. 15.
func (l *DecisionLearner) Bootstrap(patterns []Pattern) {
	for _, p := range patterns {
		cp := p
		cp.Seq = append([]string(nil), p.Seq...)
		cp.LastPhase = l.phase
		key := cp.Key()
		l.patterns[key] = &cp
		l.index(key, &cp)
	}
}

// Patterns returns a snapshot of the current store, sorted by pattern key.
// The map is keyed by Key() and keys are unique, so sorting the keys
// themselves gives that order without rebuilding a key per comparison.
func (l *DecisionLearner) Patterns() []Pattern {
	keys := make([]string, 0, len(l.patterns))
	for k := range l.patterns {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]Pattern, len(keys))
	for i, k := range keys {
		p := l.patterns[k]
		out[i] = *p
		out[i].Seq = append([]string(nil), p.Seq...)
	}
	return out
}

// Stats reports lifetime learner churn: patterns learned, patterns evicted,
// phases observed, and the live store size.
func (l *DecisionLearner) Stats() (learned, evicted, phases, live int) {
	return l.learned, l.evicted, l.phase, len(l.patterns)
}

// State exports the learner for checkpointing: the full pattern database
// (sorted by pattern key, so the encoding is canonical) plus the phase and
// churn counters. SetState is the exact inverse.
func (l *DecisionLearner) State() LearnerState {
	return LearnerState{
		Patterns: l.Patterns(),
		Phase:    l.phase,
		Learned:  l.learned,
		Evicted:  l.evicted,
	}
}

// SetState restores a learner checkpoint exported with State, replacing the
// current pattern database and counters exactly (unlike Bootstrap, which
// re-stamps freshness). Restore-then-export round-trips byte-identically.
func (l *DecisionLearner) SetState(st LearnerState) {
	l.patterns = make(map[string]*Pattern, len(st.Patterns))
	l.byLast = make(map[string][]patEntry, len(st.Patterns))
	for _, p := range st.Patterns {
		cp := p
		cp.Seq = append([]string(nil), p.Seq...)
		key := cp.Key()
		l.patterns[key] = &cp
		l.index(key, &cp)
	}
	l.phase = st.Phase
	l.learned = st.Learned
	l.evicted = st.Evicted
}

// reliabilityFloor drops patterns whose online prediction precision has
// fallen below this once enough feedback accumulated.
const (
	reliabilityFloor  = 0.35
	reliabilityTrials = 4
)

// Match finds the learned pattern best explaining the given MR-key sequence
// (observed + predicted). A pattern matches when it is an in-order
// subsequence of seq *anchored at the newest evidence*: its final key must
// be seq's final key, because a handover follows the completing report of
// its trigger sequence, not an arbitrary earlier one. The similarity of a
// match grows with support, sequence length, freshness and feedback
// reliability (§7.2). The optional admit predicate applies the caller's
// sanity checks (radio-state feasibility, reliability gating).
func (l *DecisionLearner) Match(seq []string, admit func(Pattern) bool) (Pattern, float64, bool) {
	var admitPtr func(*Pattern) bool
	if admit != nil {
		admitPtr = func(p *Pattern) bool { return admit(*p) }
	}
	bst, _, score, ok := l.match(seq, admitPtr)
	if !ok {
		return Pattern{}, 0, false
	}
	cp := *bst
	cp.Seq = append([]string(nil), bst.Seq...)
	return cp, score, true
}

// match is the allocation-free core of Match: it scans only the anchor
// bucket of seq's final key and returns the stored pattern plus its interned
// canonical key. Callers must treat the returned *Pattern as read-only and
// must not retain it across learner mutations (Match copies; the prediction
// hot path reads and drops it within the same tick). admit reads each
// candidate in place, and must not modify it.
func (l *DecisionLearner) match(seq []string, admit func(*Pattern) bool) (*Pattern, string, float64, bool) {
	if len(seq) == 0 {
		return nil, "", 0, false
	}
	last := seq[len(seq)-1]
	bestScore := -1.0
	var bst *Pattern
	bestKey := ""
	for _, e := range l.byLast[last] {
		p := e.pat
		if p.Hits+p.Misses >= reliabilityTrials && p.Reliability() < reliabilityFloor {
			continue
		}
		if admit != nil && !admit(p) {
			continue
		}
		if !isSubsequence(p.Seq, seq) {
			continue
		}
		score := l.similarity(p)
		if score > bestScore {
			bestScore = score
			bst = p
			bestKey = e.key
		}
	}
	if bst == nil {
		return nil, "", 0, false
	}
	return bst, bestKey, bestScore, true
}

// Feedback records the outcome of a prediction made from the pattern with
// the given key. Unknown keys (evicted since) are ignored.
func (l *DecisionLearner) Feedback(key string, hit bool) {
	p, ok := l.patterns[key]
	if !ok {
		return
	}
	if hit {
		p.Hits++
	} else {
		p.Misses++
	}
}

// similarity scores a pattern by support (log-damped), length, and
// freshness.
func (l *DecisionLearner) similarity(p *Pattern) float64 {
	support := float64(p.Support)
	length := float64(len(p.Seq))
	fresh := 1.0
	if l.cfg.FreshnessPhases > 0 {
		age := float64(l.phase - p.LastPhase)
		fresh = 1 - age/float64(l.cfg.FreshnessPhases+1)
		if fresh < 0 {
			fresh = 0
		}
	}
	return ((1+math.Log1p(support))*0.6 + length*0.3 + fresh*0.4) * (0.5 + 0.5*p.Reliability())
}

// isSubsequence reports whether needle appears in order within haystack.
func isSubsequence(needle, haystack []string) bool {
	if len(needle) == 0 {
		return false
	}
	hi := 0
	for _, want := range needle {
		found := false
		for hi < len(haystack) {
			if haystack[hi] == want {
				found = true
				hi++
				break
			}
			hi++
		}
		if !found {
			return false
		}
	}
	return true
}
