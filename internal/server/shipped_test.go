// Shipped-state goldens: the bytes a session's warm state leaves a node
// as — its replication deposit, its parked state and, on a second node,
// the state of that deposit promoted from the replica table. Whatever
// shape the server holds that state in, these bytes must not change.

package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/throughput"
	"repro/internal/topology"
	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

// soloServer serves on a one-member ring, so it owns every token whatever
// port it lands on. ReplicationInterval is set for the session loop's
// deposits, but an hour long: the test bumps repGen itself.
func soloServer(t *testing.T) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.New([]string{ln.Addr().String()}, cluster.NewRingPolicy())
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, Options{
		ResumeGrace:         time.Minute,
		Cluster:             ring,
		NodeAddr:            ln.Addr().String(),
		ReplicationInterval: time.Hour,
	})
	t.Cleanup(func() { srv.Close() })
	return srv
}

// checkGolden compares st's indented JSON with testdata/name, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, st cluster.SessionState) {
	t.Helper()
	got, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: shipped state differs from the golden (%d vs %d bytes); rerun with -update only if the change is meant", name, len(got), len(want))
	}
}

// TestShippedStateGolden serves the first 300 samples of a fixed OpX/NSA
// city drive, with its reports and handovers, over the binary framing.
// Half-way through the reports the test bumps repGen, so the next sample
// deposits the session's partial state; the client then closes, and the
// session parks. The deposit and the parked state are compared with
// goldens, and so is the deposit once a second node holds it as a replica
// (next to the first node's context snapshot) and promotes it: a full
// state again, with no origin and a learner export.
func TestShippedStateGolden(t *testing.T) {
	const (
		token   = "golden-ue"
		carrier = "OpX"
		arch    = cellular.ArchNSA
		samples = 300
	)
	log, err := sim.Run(sim.Config{
		Carrier:      topology.OpX(),
		Arch:         arch,
		RouteKind:    geo.RouteCityLoop,
		RouteLengthM: 600,
		Laps:         1,
		SpeedMPS:     14,
		BearerMode:   throughput.ModeSCG,
		Seed:         3,
		TopoOpts:     topology.Options{CityDensity: 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	drive := log.Samples[:samples]
	end := drive[len(drive)-1].Time
	var reports []cellular.MeasurementReport
	for _, r := range log.Reports {
		if r.Time <= end {
			reports = append(reports, r)
		}
	}
	if len(reports) < 2 {
		t.Fatalf("drive too quiet: %d reports in %d samples", len(reports), samples)
	}

	src := soloServer(t)
	c, err := DialWith(src.Addr(), wire.Hello{Carrier: carrier, Arch: arch, SessionToken: token},
		ClientOptions{Framing: wire.FramingBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.readAck(); err != nil {
		t.Fatal(err)
	}
	sentReports, ri, hi := 0, 0, 0
	for _, smp := range drive {
		for ; ri < len(reports) && reports[ri].Time <= smp.Time; ri++ {
			if err := c.SendReport(reports[ri]); err != nil {
				t.Fatal(err)
			}
			if sentReports++; sentReports == len(reports)/2 {
				// Once the server has counted this report, it has run
				// every earlier sample's repGen check, so the bump lands
				// on the next sample.
				if err := c.w.Flush(); err != nil {
					t.Fatal(err)
				}
				waitFor(t, "the server to read the report", func() bool {
					return src.Stats().Reports == int64(sentReports)
				})
				src.repGen.Add(1)
			}
		}
		for ; hi < len(log.Handovers) && log.Handovers[hi].Time <= smp.Time; hi++ {
			if err := c.SendHandover(log.Handovers[hi]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.SendSample(smp); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadResponse(); err == nil {
		t.Fatal("expected EOF after the drive")
	}
	waitFor(t, "the session to park", func() bool { return src.Stats().Parked == 1 })

	deposit, ok := src.replOut.drain()[token]
	if !ok {
		t.Fatal("the repGen bump left no deposit")
	}
	checkGolden(t, "shipped_deposit.json", deposit)
	parked := src.unpark(token)
	if parked == nil {
		t.Fatal("no parked session after the client closed")
	}
	checkGolden(t, "shipped_parked.json", parked.state())

	ctx, ok := src.warmSnapshot(carrier, arch)
	if !ok {
		t.Fatal("no warm context after the session")
	}
	dst := soloServer(t)
	held := []cluster.SessionState{deposit, {Carrier: carrier, Arch: arch, Snapshot: ctx}}
	st, err := cluster.ShipReplicas(dst.Addr(), src.Addr(), held, 5*time.Second)
	if err != nil || st.Sessions != 1 || st.Contexts != 1 {
		t.Fatalf("ship replicas: %+v, %v", st, err)
	}
	if !dst.promoteReplica(token) {
		t.Fatal("no replica to promote")
	}
	promoted := dst.unpark(token)
	if promoted == nil {
		t.Fatal("the promoted replica is not parked")
	}
	checkGolden(t, "shipped_promoted.json", promoted.state())
}
