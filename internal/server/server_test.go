package server

import (
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
	"repro/internal/wire"
)

func mkSample(at time.Duration, rsrp float64) trace.Sample {
	return trace.Sample{
		Time:       at,
		Arch:       cellular.ArchNSA,
		ServingLTE: trace.CellObs{PCI: 1, Valid: true, RSRP: rsrp},
	}
}

func TestServerRoundTrip(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := Dial(srv.Addr(), wire.Hello{Carrier: "OpX", Arch: cellular.ArchNSA})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// A healthy sample must yield a no-HO prediction with score 1.
	resp, err := client.SendSample(mkSample(0, -85))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != cellular.HONone || resp.Score != 1 {
		t.Fatalf("healthy sample predicted %+v", resp)
	}
	if resp.TypeName != "NONE" {
		t.Errorf("type name %q", resp.TypeName)
	}

	// Feed a report and a handover; the session must keep flowing.
	if err := client.SendReport(cellular.MeasurementReport{Time: 50 * time.Millisecond, Event: cellular.EventA2, Tech: cellular.TechLTE, ServingPCI: 1}); err != nil {
		t.Fatal(err)
	}
	if err := client.SendHandover(cellular.HandoverEvent{Time: 100 * time.Millisecond, Type: cellular.HOLTEH}); err != nil {
		t.Fatal(err)
	}
	resp, err = client.SendSample(mkSample(150*time.Millisecond, -85))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Time != 150*time.Millisecond {
		t.Errorf("echoed time %v", resp.Time)
	}
}

func TestServerConcurrentSessions(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(srv.Addr(), wire.Hello{Carrier: "OpY", Arch: cellular.ArchNSA})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for k := 0; k < 50; k++ {
				if _, err := c.SendSample(mkSample(time.Duration(k)*50*time.Millisecond, -90)); err != nil {
					t.Errorf("session %d: %v", id, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestServerStats drives one session and checks the run metrics both
// in-process (Server.Stats) and over the wire (FetchStats).
func TestServerStats(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := Dial(srv.Addr(), wire.Hello{Carrier: "OpX", Arch: cellular.ArchNSA})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if _, err := client.SendSample(mkSample(time.Duration(k)*50*time.Millisecond, -85)); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.SendReport(cellular.MeasurementReport{Time: 200 * time.Millisecond, Event: cellular.EventA2, Tech: cellular.TechLTE, ServingPCI: 1}); err != nil {
		t.Fatal(err)
	}
	if err := client.SendHandover(cellular.HandoverEvent{Time: 250 * time.Millisecond, Type: cellular.HOLTEH}); err != nil {
		t.Fatal(err)
	}
	// The report/HO records are one-way; a final sample round-trip
	// guarantees the server has consumed them.
	if _, err := client.SendSample(mkSample(300*time.Millisecond, -85)); err != nil {
		t.Fatal(err)
	}

	snap := srv.Stats()
	if snap.Sessions != 1 || snap.Active != 1 {
		t.Errorf("sessions=%d active=%d, want 1/1", snap.Sessions, snap.Active)
	}
	if snap.Samples != 4 || snap.Predictions != 4 || snap.Reports != 1 || snap.Handovers != 1 {
		t.Errorf("snapshot %+v", snap)
	}

	wire, err := FetchStats(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if wire.Samples != snap.Samples || wire.Sessions != snap.Sessions {
		t.Errorf("wire snapshot %+v != in-process %+v", wire, snap)
	}
	if wire.UptimeMS < 0 {
		t.Errorf("uptime %v", wire.UptimeMS)
	}
	client.Close()

	// A stats session must not count as a prediction session.
	if snap2, err := FetchStats(srv.Addr()); err != nil {
		t.Fatal(err)
	} else if snap2.Sessions != 1 {
		t.Errorf("stats queries must not inflate the session count: %+v", snap2)
	}
}

func TestServerRejectsBadHello(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	// The server must answer with a structured error line, then close.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var line struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(conn).Decode(&line); err != nil {
		t.Fatalf("reading error line: %v", err)
	}
	if !strings.Contains(line.Error, "bad hello") {
		t.Errorf("error line %q, want a bad-hello message", line.Error)
	}
	buf := make([]byte, 64)
	if _, err := conn.Read(buf); err == nil {
		t.Error("expected session teardown after the error line")
	}
	if got := srv.Stats().SessionErrors; got != 1 {
		t.Errorf("session_errors = %d, want 1", got)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr(), wire.Hello{Carrier: "OpX", Arch: cellular.ArchLTE})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	srv.Close()
	client.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.SendSample(mkSample(0, -80)); err == nil {
		// The first write may still land in kernel buffers; a second must
		// fail.
		if _, err2 := client.SendSample(mkSample(50*time.Millisecond, -80)); err2 == nil {
			t.Error("sends kept succeeding after server close")
		}
	}
}
