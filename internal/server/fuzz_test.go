package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/wire"
)

// FuzzSessionProtocol throws arbitrary byte streams at a full session —
// hello parsing, record decoding, the resume handshake — and requires the
// server to survive every one of them: no panic, no hang. The seed corpus
// is the malformed-input catalogue the hardening tests cover one by one.
func FuzzSessionProtocol(f *testing.F) {
	line := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return append(b, '\n')
	}
	sample := mkSample(0, -95)
	hello := line(wire.Hello{Carrier: "OpX", Arch: cellular.ArchNSA})
	rec := line(wire.Record{Sample: &sample})

	// Well-formed session: hello plus a sample record.
	f.Add(append(append([]byte{}, hello...), rec...))
	// The hardening corpus: bad hello JSON, bad record JSON, empty input,
	// a stats query, an unknown-field record, a bare newline storm.
	f.Add([]byte("{half a hello\n"))
	f.Add(append(append([]byte{}, hello...), []byte("{\"sample\":42}\n")...))
	f.Add([]byte{})
	f.Add(line(wire.Hello{Stats: true}))
	f.Add(append(append([]byte{}, hello...), []byte("{\"unknown\":true}\n")...))
	f.Add([]byte("\n\n\n\n"))
	// Resume-protocol shapes: tokened hello, absurd cursor, token with no
	// resume support configured server-side.
	f.Add(line(wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: "fuzz-tok"}))
	f.Add(line(wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: "fuzz-tok", LastSeq: -7}))
	f.Add(line(wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE, SessionToken: "fuzz-tok", LastSeq: 1 << 40}))
	// An oversized record line (over maxLineBytes).
	f.Add(append(append([]byte{}, hello...), append(bytes.Repeat([]byte("x"), maxLineBytes+1), '\n')...))

	// Binary-framing shapes. The hello is always JSONL; what follows it is
	// binary frames (docs/PROTOCOL.md §negotiation).
	binHello := line(wire.Hello{Carrier: "OpX", Arch: cellular.ArchNSA, Framing: string(wire.FramingBinary)})
	frame := func(write func(*wire.FrameWriter) error) []byte {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := write(wire.NewFrameWriter(bw)); err != nil {
			f.Fatal(err)
		}
		bw.Flush()
		return buf.Bytes()
	}
	// Well-formed binary session: hello plus one sample frame.
	f.Add(append(append([]byte{}, binHello...), frame(func(fw *wire.FrameWriter) error {
		return fw.WriteSample(&sample)
	})...))
	// Truncated frame: header promises more payload than arrives.
	full := frame(func(fw *wire.FrameWriter) error { return fw.WriteSample(&sample) })
	f.Add(append(append([]byte{}, binHello...), full[:len(full)-40]...))
	// Unknown frame type, wrong-direction (server→client) frame type, and a
	// client record whose payload length lies about the fixed layout.
	f.Add(append(append([]byte{}, binHello...), 0x07, 0, 0, 0, 0x7f))
	f.Add(append(append([]byte{}, binHello...), 0x00, 0, 0, 0, wire.FrameResponse))
	f.Add(append(append([]byte{}, binHello...), 0x03, 0, 0, 0, wire.FrameSample, 1, 2, 3))
	// Oversized frame header (length over MaxFrameBytes).
	f.Add(append(append([]byte{}, binHello...), 0xff, 0xff, 0xff, 0xff, wire.FrameSample))
	// A hello naming a framing the server does not speak.
	f.Add(line(wire.Hello{Carrier: "OpX", Arch: cellular.ArchNSA, Framing: "protobuf"}))

	// State-transfer shapes (docs/PROTOCOL.md §State-transfer frames). The
	// harness server has no cluster ring, so every replicate hello must be
	// rejected cleanly — the satellite case a mis-wired peer exercises.
	repHello := line(wire.Hello{Replicate: true, Node: "fuzz-peer", Framing: string(wire.FramingBinary)})
	repState := frame(func(fw *wire.FrameWriter) error {
		return fw.WriteMigrate([]byte(`{"v":1,"token":"fuzz-tok","carrier":"OpX","arch":"NSA","seq":3,"partial":true}`))
	})
	// Well-formed replication push, and the same push truncated mid-payload.
	f.Add(append(append([]byte{}, repHello...), repState...))
	f.Add(append(append([]byte{}, repHello...), repState[:len(repState)-10]...))
	// Wrong-direction frame (the ack type belongs to the server side) and a
	// frame from the serving vocabulary inside a replication stream.
	f.Add(append(append([]byte{}, repHello...), 0x09, 0, 0, 0, wire.FrameMigrateAck, 1, 2, 3, 4, 5, 6, 7, 8, 9))
	f.Add(append(append([]byte{}, repHello...), frame(func(fw *wire.FrameWriter) error {
		return fw.WriteSample(&sample)
	})...))
	// A replicate hello asking for JSONL framing (replication is binary-only).
	f.Add(line(wire.Hello{Replicate: true, Node: "fuzz-peer"}))
	// The retired replication frame type 0x05, under a migrate hello so it
	// reaches the stream's frame-type check on this unclustered harness.
	migHello := line(wire.Hello{Migrate: true, Node: "fuzz-peer", Framing: string(wire.FramingBinary)})
	retired := append([]byte{}, repState...)
	retired[4] = 0x05
	f.Add(append(append([]byte{}, migHello...), retired...))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := newServer(nil, Options{SessionTimeout: time.Second})
		client, srvConn := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer srvConn.Close()
			s.serve(srvConn)
		}()
		// Drain whatever the server writes so its writes never block the
		// pipe, and feed it the fuzzed stream.
		go io.Copy(io.Discard, client)
		client.SetWriteDeadline(time.Now().Add(2 * time.Second))
		client.Write(data)
		client.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("session hung on fuzzed input")
		}
	})
}
