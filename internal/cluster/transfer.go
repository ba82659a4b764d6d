package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/wire"
)

// SessionStateVersion gates the state-transfer payload schema,
// independently of the checkpoint format's core.SnapshotVersion (which
// versions Snapshot itself): a receiving node rejects states from a future
// schema instead of mis-reading them.
const SessionStateVersion = 1

// SessionState is one unit of warm state shipped between nodes inside a
// FrameMigrate frame (JSON-encoded; docs/PROTOCOL.md §State-transfer
// frames), whether a drain hands it off or replication keeps a crash-fault
// copy of it. Two shapes travel under the same type:
//
//   - Token != "": a parked session. The receiver re-parks it — learned
//     snapshot, resume cursor and replay buffer intact — so the UE's next
//     reconnect resumes warm with exact replay, as if it had never left
//     the origin node.
//   - Token == "": a context-level warm snapshot (the freshest learned
//     state for one (carrier, arch) deployment context). The receiver
//     folds it into its warm store so even UEs without parked state
//     bootstrap from the migrated learning.
type SessionState struct {
	Version int           `json:"version"`
	Origin  string        `json:"origin,omitempty"`
	Token   string        `json:"token,omitempty"`
	Carrier string        `json:"carrier"`
	Arch    cellular.Arch `json:"arch"`
	// DisableReportPredictor carries the session's hello setting of the
	// same name, so the learner rebuilt on the receiving node runs the
	// pipeline its client asked for. Omitted when false (the default), so
	// default payloads are unchanged; a receiver that predates the field
	// reads it as false.
	DisableReportPredictor bool `json:"disable_report_predictor,omitempty"`
	// Seq is the parked session's resume cursor (highest answered
	// Response.Seq); Responses its replay buffer, oldest first, exactly
	// the responses a resuming client may still be missing.
	Seq       int64           `json:"seq,omitempty"`
	Responses []wire.Response `json:"responses,omitempty"`
	Snapshot  core.Snapshot   `json:"snapshot"`
	// Partial marks a replication push of a live session's resume state
	// (cursor + replay tail) without its learner snapshot: the hot path
	// deposits these cheaply every replication interval, and a promoting
	// node warm-starts the learner from the separately replicated context
	// snapshot instead. Never set on drain migration. Schema note: added
	// under SessionStateVersion 1 — old receivers ignore the field and
	// treat the state as a (stale-snapshot) parked session, which is safe.
	Partial bool `json:"partial,omitempty"`
}

// ShipStats accounts one state-transfer stream to one target node.
type ShipStats struct {
	// Sessions and Contexts count the accepted parked-session and
	// warm-snapshot states; Rejected the states the target nacked.
	Sessions int
	Contexts int
	Rejected int
	// Bytes is the total FrameMigrate payload bytes shipped (the
	// bytes-moved cost of the stream, before framing overhead).
	Bytes int64
}

// Ship opens one migration stream to addr and ships states over it,
// pipelined, returning per-target accounting: a drain handoff, which the
// target serves at once. origin names the shipping node (it travels in the
// hello and tags the target's trace events). The whole exchange — dial,
// handshake, every frame and ack — happens within timeout. Any transport
// or protocol error aborts the stream, but the returned stats still count
// every state acked before it; migration is best-effort by design, because
// every shipped state is also recoverable the slow way (cold start warmed
// by checkpoint, §Resilience).
func Ship(addr, origin string, states []SessionState, timeout time.Duration) (ShipStats, error) {
	return ship(addr, origin, states, timeout, false)
}

// ShipReplicas is Ship under a "replicate" hello: the same frames and
// acks, but the receiver holds the states passively (replica table + warm
// store) for crash failover instead of serving them. Best-effort like
// Ship: a failed stream costs staleness, never correctness, because the
// next replication tick pushes fresh state again.
func ShipReplicas(addr, origin string, states []SessionState, timeout time.Duration) (ShipStats, error) {
	return ship(addr, origin, states, timeout, true)
}

// ship is the one stream body of Ship and ShipReplicas; hold picks the
// hello flag, which alone fixes the receiver's disposition for the stream.
func ship(addr, origin string, states []SessionState, timeout time.Duration, hold bool) (ShipStats, error) {
	var st ShipStats
	if len(states) == 0 {
		return st, nil
	}
	kind := "migrate"
	if hold {
		kind = "replicate"
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return st, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return st, err
	}
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	hello, err := json.Marshal(wire.Hello{
		Node:      origin,
		Framing:   string(wire.FramingBinary),
		Migrate:   !hold,
		Replicate: hold,
	})
	if err != nil {
		return st, err
	}
	hello = append(hello, '\n')
	if _, err := bw.Write(hello); err != nil {
		return st, err
	}
	if err := bw.Flush(); err != nil {
		return st, err
	}
	line, err := wire.ReadLine(br, wire.MaxLineBytes)
	if err != nil {
		return st, fmt.Errorf("cluster: read %s handshake from %s: %w", kind, addr, err)
	}
	var env struct {
		FramingAck bool   `json:"framing_ack"`
		Err        string `json:"error"`
	}
	if err := json.Unmarshal(line, &env); err != nil {
		return st, fmt.Errorf("cluster: bad %s handshake from %s: %w", kind, addr, err)
	}
	if env.Err != "" {
		return st, fmt.Errorf("cluster: %s rejected %s stream: %s", addr, kind, env.Err)
	}
	if !env.FramingAck {
		return st, fmt.Errorf("cluster: %s answered %s hello without framing ack", addr, kind)
	}

	// Ship everything pipelined, then collect one ack per state. The ack
	// seq is the 1-based send ordinal, so verdicts stay attributable even
	// though the target answers in order.
	fw := wire.NewFrameWriter(bw)
	for _, s := range states {
		s.Version = SessionStateVersion
		if s.Origin == "" {
			s.Origin = origin
		}
		payload, err := json.Marshal(s)
		if err != nil {
			return st, fmt.Errorf("cluster: encode session state %q: %w", s.Token, err)
		}
		if err := fw.WriteMigrate(payload); err != nil {
			return st, err
		}
		st.Bytes += int64(len(payload))
	}
	if err := bw.Flush(); err != nil {
		return st, err
	}
	fr := wire.NewFrameReader(br)
	for i := range states {
		typ, p, err := fr.ReadFrame()
		if err != nil {
			return st, fmt.Errorf("cluster: read %s ack %d/%d from %s: %w", kind, i+1, len(states), addr, err)
		}
		switch typ {
		case wire.FrameMigrateAck:
		case wire.FrameError:
			return st, fmt.Errorf("cluster: %s aborted %s stream: %s", addr, kind, p)
		default:
			return st, fmt.Errorf("cluster: unexpected frame 0x%02x in %s ack stream", typ, kind)
		}
		var ack wire.MigrateAck
		if err := wire.DecodeMigrateAck(p, &ack); err != nil {
			return st, err
		}
		if ack.Seq != int64(i+1) {
			return st, fmt.Errorf("cluster: %s ack out of order: got seq %d, want %d", kind, ack.Seq, i+1)
		}
		switch {
		case !ack.OK:
			st.Rejected++
		case states[i].Token != "":
			st.Sessions++
		default:
			st.Contexts++
		}
	}
	return st, nil
}
