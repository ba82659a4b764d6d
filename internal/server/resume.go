package server

import (
	"fmt"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/obs"
)

// replayBufCap bounds the per-session response replay buffer: a resumed
// client can recover up to this many in-flight responses. At 20 Hz this is
// ~51s of stream — far beyond any sane reconnect window — while costing at
// most a few hundred KB per resumable session.
const replayBufCap = 1024

// warmPushEvery is how many samples a session serves between pushes of its
// learned state into the server's warm store (plus one final push at clean
// session end), bounding how much learning a crash can lose.
const warmPushEvery = 512

// warmKey indexes the warm store by deployment context.
type warmKey struct {
	carrier string
	arch    string
}

// replayBuffer holds the most recent responses of a resumable session, in
// seq order ending at the session's current cursor.
type replayBuffer struct {
	max  int
	resp []Response
}

func newReplayBuffer(max int) *replayBuffer {
	return &replayBuffer{max: max}
}

// push appends one response, dropping the oldest past the cap.
func (b *replayBuffer) push(r Response) {
	if len(b.resp) == b.max {
		// Shift in place: the buffer stays at one allocation forever.
		copy(b.resp, b.resp[1:])
		b.resp[len(b.resp)-1] = r
		return
	}
	b.resp = append(b.resp, r)
}

// after returns the responses a client holding cursor last still needs,
// given the session cursor seq. It reports false when the buffer no longer
// covers the gap (or the client claims a cursor ahead of the session) — the
// caller must then cold-start rather than leave a hole in the stream.
func (b *replayBuffer) after(last, seq int64) ([]Response, bool) {
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
	return b.resp[int64(len(b.resp))-n:], true
}

// parkedSession is the warm state of an interrupted resumable session,
// waiting out the grace window for its client to reconnect. A parked
// session holds no MaxSessions slot and no conn; only the table entry.
type parkedSession struct {
	token   string
	prog    *core.Prognos
	seq     int64
	buf     *replayBuffer
	carrier string
	arch    cellular.Arch
	expires time.Time
	// disableReportPredictor is the session's hello setting, carried so
	// the learner rebuilt wherever the session moves runs the same
	// pipeline (newPrognos).
	disableReportPredictor bool
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

// park stores a session's warm state for ResumeGrace, evicting the entry
// closest to expiry when the table is full. The session's learned state is
// also merged into the warm store so a never-resumed park still contributes
// to checkpoints and future cold starts.
func (s *Server) park(p *parkedSession) {
	s.pushWarm(p.carrier, p.arch, p.token, p.prog.Snapshot())
	s.opts.Tracer.Emit(obs.Event{
		Kind:    obs.EvSessionPark,
		Session: p.token,
		Carrier: p.carrier,
		Arch:    p.arch.String(),
		RespSeq: p.seq,
	})
	p.expires = time.Now().Add(s.opts.ResumeGrace)
	replaced, evicted := s.parked.insert(p, s.opts.MaxParked)
	if replaced {
		// A duplicate token replaced the previous park (same gauge slot).
		return
	}
	if evicted != nil {
		s.stats.SessionUnparked()
		s.stats.ParkedExpired()
	}
	s.stats.SessionParked()
}

// unpark removes and returns the parked session for token, or nil when no
// live entry exists. Expired entries found here are dropped exactly as the
// sweeper would drop them (lazy expiry).
func (s *Server) unpark(token string) *parkedSession {
	p := s.parked.remove(token)
	if p == nil {
		return nil
	}
	s.stats.SessionUnparked()
	if time.Now().After(p.expires) {
		s.stats.ParkedExpired()
		return nil
	}
	return p
}

// sweepParked drops every parked session past its grace window, merging its
// learned state into the warm store first.
func (s *Server) sweepParked(now time.Time) {
	expired := s.parked.sweep(now)
	// The table no longer references these sessions, so their Prognos
	// instances are exclusively ours to snapshot.
	for _, p := range expired {
		s.stats.SessionUnparked()
		s.stats.ParkedExpired()
		s.pushWarm(p.carrier, p.arch, p.token, p.prog.Snapshot())
	}
}

// pushWarm records the latest learned state for a deployment context,
// sharded by session token (see shard.go). The warm store seeds new
// sessions' learners and is what checkpoints persist.
func (s *Server) pushWarm(carrier string, arch cellular.Arch, token string, snap core.Snapshot) {
	s.warm.push(warmKey{carrier: carrier, arch: arch.String()}, token, snap)
}

// warmSnapshot returns the freshest stored learned state for a deployment
// context.
func (s *Server) warmSnapshot(carrier string, arch cellular.Arch) (core.Snapshot, bool) {
	return s.warm.freshest(warmKey{carrier: carrier, arch: arch.String()})
}

// restoreCheckpoints loads every readable checkpoint in CheckpointDir into
// the warm store at startup; sessions opened after restart bootstrap their
// learners from the pre-crash pattern databases. Unreadable or
// incompatible-version files are skipped — a restart must always come up.
func (s *Server) restoreCheckpoints() {
	files, err := core.LoadCheckpointDir(s.opts.CheckpointDir)
	if err != nil {
		return
	}
	for _, f := range files {
		// Restored state lands in the empty-token slot with a fresh
		// stamp; any later live push outranks it.
		s.warm.push(warmKey{carrier: f.Carrier, arch: f.Arch}, "", f.Snapshot)
		s.stats.CheckpointRestored()
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
			Arch:     k.arch,
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
		s.stats.CheckpointSaved(int64(total))
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
				s.stats.ReplicaDropped()
			}
		case <-ckptC:
			s.CheckpointNow()
		}
	}
}
