package server

import (
	"fmt"
	"time"

	"repro/internal/cellular"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/wire"
)

// replayBufCap bounds the per-session response replay buffer: a resumed
// client can recover up to this many in-flight responses. At 20 Hz this is
// ~51s of stream — far beyond any sane reconnect window — while costing
// 1024 × 64 B = 64 KB per resumable session.
const replayBufCap = 1024

// warmPushEvery is how many samples a session serves between pushes of its
// learned state into the server's warm store (plus one final push at clean
// session end), bounding how much learning a crash can lose.
const warmPushEvery = 512

// warmKey indexes the warm store by deployment context.
type warmKey struct {
	carrier string
	arch    cellular.Arch
}

// replayBuffer holds the most recent responses of a resumable session, in
// seq order ending at the session's current cursor. It is a ring: once
// full, a push overwrites the oldest slot, so a push costs the same at any
// depth. Every reader takes an oldest-first copy through last.
type replayBuffer struct {
	max  int
	resp []wire.Response
	// next is the slot the next push overwrites once the ring is full,
	// which holds the oldest response; 0 until then.
	next int
}

func newReplayBuffer(max int) *replayBuffer {
	return &replayBuffer{max: max}
}

// push appends one response, overwriting the oldest past the cap.
func (b *replayBuffer) push(r wire.Response) {
	if len(b.resp) < b.max {
		b.resp = append(b.resp, r)
		return
	}
	b.resp[b.next] = r
	if b.next++; b.next == b.max {
		b.next = 0
	}
}

// last returns a copy of the newest n responses, oldest first: all of
// them when n exceeds the count, nil when there are none to copy.
func (b *replayBuffer) last(n int) []wire.Response {
	if b == nil {
		return nil
	}
	if n = min(n, len(b.resp)); n <= 0 {
		return nil
	}
	start := b.next + len(b.resp) - n
	if start >= len(b.resp) {
		start -= len(b.resp)
	}
	out := make([]wire.Response, 0, n)
	out = append(out, b.resp[start:min(start+n, len(b.resp))]...)
	return append(out, b.resp[:n-len(out)]...)
}

// clone returns a copy that shares no storage with b: a resumed session
// pushes into its own copy, leaving the parked one for any reader still
// shipping it.
func (b *replayBuffer) clone() *replayBuffer {
	return &replayBuffer{max: b.max, resp: b.last(len(b.resp))}
}

// after returns the responses a client holding cursor last still needs,
// given the session cursor seq. It reports false when the buffer no longer
// covers the gap (or the client claims a cursor ahead of the session) — the
// caller must then cold-start rather than leave a hole in the stream.
func (b *replayBuffer) after(last, seq int64) ([]wire.Response, bool) {
	if last > seq {
		return nil, false
	}
	if last == seq {
		return nil, true
	}
	n := seq - last
	if b == nil || int64(len(b.resp)) < n {
		return nil, false
	}
	return b.last(int(n)), true
}

// parkedSession is the warm state of an interrupted resumable session,
// waiting out the grace window for its client to reconnect. A parked
// session holds no MaxSessions slot and no conn; only the table entry.
// Once parked its fields are never written again, and state reads nothing
// a resumed session writes (prog learns on, buf is copied first): a
// replication round may still be shipping an entry the table handed out
// when a resume takes it.
type parkedSession struct {
	// st is the session as it ships: its identity (the hello settings
	// newPrognos rebuilds the learner from wherever it moves), its resume
	// cursor Seq, and the learner export park took, so a parked learner
	// is exported once per park, however often it is shipped. Version,
	// Origin, Partial and Responses stay zero: state fills the responses
	// from buf, and cluster.Ship the version and origin.
	st   cluster.SessionState
	prog *core.Prognos
	buf  *replayBuffer
	// migrated marks state installed by a cluster migration rather than
	// parked by a local session; its first resume counts as a migrated
	// (warm-handoff) resume.
	migrated bool
	// replica marks state promoted from the replica table after a
	// confirmed owner crash. Replicated state may trail the client's
	// acknowledged cursor by the samples since the origin's last
	// replication push, so the resume path fast-forwards instead of
	// cold-starting when the client is ahead (the bounded-staleness
	// contract; see session). Cleared on re-park: once served live, the
	// cursor is exact again.
	replica bool
}

// state captures a parked session as a shippable full state: st plus the
// replay buffer.
func (p *parkedSession) state() cluster.SessionState {
	st := p.st
	st.Responses = p.buf.last(replayBufCap)
	return st
}

// park stores a session's warm state for ResumeGrace, evicting the entry
// closest to expiry when the table is full. The learner is exported once,
// here: the export is merged into the warm store, so a never-resumed park
// still contributes to checkpoints and future cold starts, and kept for
// shipping.
func (s *Server) park(p *parkedSession) {
	p.st.Snapshot = p.prog.Snapshot()
	s.pushWarm(p.st.Carrier, p.st.Arch, p.st.Snapshot)
	s.opts.Tracer.Emit(obs.Event{
		Kind:    obs.EvSessionPark,
		Session: p.st.Token,
		Carrier: p.st.Carrier,
		Arch:    p.st.Arch.String(),
		RespSeq: p.st.Seq,
	})
	replaced, evicted := s.parked.put(p.st.Token, p, time.Now().Add(s.opts.ResumeGrace))
	if replaced {
		// A duplicate token replaced the previous park (same gauge slot).
		return
	}
	if evicted {
		s.stats.Add(metrics.Parked, -1)
		s.stats.Add(metrics.ParkedExpired, 1)
	}
	s.stats.Add(metrics.Parked, 1)
}

// unpark removes and returns the parked session for token, or nil when no
// live entry exists. Expired entries found here are dropped exactly as the
// sweeper would drop them (lazy expiry).
func (s *Server) unpark(token string) *parkedSession {
	p, expires, ok := s.parked.take(token)
	if !ok {
		return nil
	}
	s.stats.Add(metrics.Parked, -1)
	if time.Now().After(expires) {
		s.stats.Add(metrics.ParkedExpired, 1)
		return nil
	}
	return p
}

// sweepParked drops every parked session past its grace window. Their
// learners reached the warm store when they parked; pushing them again
// here would roll back any fresher push made since.
func (s *Server) sweepParked(now time.Time) {
	for n := s.parked.sweep(now); n > 0; n-- {
		s.stats.Add(metrics.Parked, -1)
		s.stats.Add(metrics.ParkedExpired, 1)
	}
}

// pushWarm records the latest learned state for a deployment context. The
// warm store seeds new sessions' learners and is what checkpoints persist.
func (s *Server) pushWarm(carrier string, arch cellular.Arch, snap core.Snapshot) {
	s.warm.push(warmKey{carrier: carrier, arch: arch}, snap)
}

// warmSnapshot returns the latest stored learned state for a deployment
// context.
func (s *Server) warmSnapshot(carrier string, arch cellular.Arch) (core.Snapshot, bool) {
	return s.warm.freshest(warmKey{carrier: carrier, arch: arch})
}

// restoreCheckpoints loads every readable checkpoint in CheckpointDir into
// the warm store at startup; sessions opened after restart bootstrap their
// learners from the pre-crash pattern databases. Unreadable or
// incompatible-version files, and files of an arch no session can name,
// are skipped — a restart must always come up.
func (s *Server) restoreCheckpoints() {
	files, err := core.LoadCheckpointDir(s.opts.CheckpointDir)
	if err != nil {
		return
	}
	for _, f := range files {
		arch, err := cellular.ParseArch(f.Arch)
		if err != nil {
			continue
		}
		s.warm.push(warmKey{carrier: f.Carrier, arch: arch}, f.Snapshot)
		s.stats.Add(metrics.CheckpointRestores, 1)
	}
}

// CheckpointNow atomically writes one versioned checkpoint file per warm
// (carrier, arch) entry into CheckpointDir and returns the total bytes
// published. The periodic housekeeping pass and Drain call this; tests and
// operators may too.
func (s *Server) CheckpointNow() (int, error) {
	if s.opts.CheckpointDir == "" {
		return 0, nil
	}
	entries := s.warm.all()
	total := 0
	var firstErr error
	for k, snap := range entries {
		n, err := core.WriteCheckpoint(s.opts.CheckpointDir, core.CheckpointFile{
			Carrier:  k.carrier,
			Arch:     k.arch.String(),
			Snapshot: snap,
		})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		total += n
	}
	if total > 0 {
		s.stats.Add(metrics.CheckpointSaves, 1)
		s.stats.Set(metrics.CheckpointBytes, int64(total))
		s.opts.Tracer.Emit(obs.Event{
			Kind:   obs.EvCheckpoint,
			Bytes:  int64(total),
			Detail: fmt.Sprintf("%d deployment contexts", len(entries)),
		})
	}
	return total, firstErr
}

// housekeeping is the server's background maintenance loop: it expires
// parked sessions on a fraction of the grace window and writes periodic
// checkpoints. It exits when the server stops accepting.
func (s *Server) housekeeping() {
	var sweepC, ckptC <-chan time.Time
	if s.opts.ResumeGrace > 0 {
		interval := s.opts.ResumeGrace / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		if interval > time.Second {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		sweepC = t.C
	}
	if s.opts.CheckpointDir != "" {
		t := time.NewTicker(s.opts.CheckpointInterval)
		defer t.Stop()
		ckptC = t.C
	}
	for {
		select {
		case <-s.done:
			return
		case now := <-sweepC:
			s.sweepParked(now)
			for n := s.replicas.sweep(now); n > 0; n-- {
				s.stats.Add(metrics.ReplicaSessions, -1)
			}
		case <-ckptC:
			s.CheckpointNow()
		}
	}
}
