// Livepredict: Prognos as a network service. The example starts a
// prediction server in-process (the same engine cmd/prognosd runs), streams
// a simulated drive to it over TCP exactly as a UE-side agent would, and
// tallies how the live predictions line up with the handovers that actually
// followed.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/server"
	"repro/internal/wire"
)

func main() {
	srv, err := server.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("prognos server on %s\n", srv.Addr())

	drive, err := repro.Drive(repro.DriveConfig{
		Carrier:      repro.OpX(),
		Arch:         repro.ArchNSA,
		RouteKind:    repro.RouteCityLoop,
		RouteLengthM: 3000,
		Laps:         3,
		SpeedMPS:     8.3,
		Seed:         5,
		TopoOpts:     repro.TopologyOptions{CityDensity: 0.7},
	})
	if err != nil {
		log.Fatal(err)
	}

	client, err := server.Dial(srv.Addr(), wire.Hello{Carrier: "OpX", Arch: repro.ArchNSA})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Stream the drive in time order, as a UE agent would: control-plane
	// events as they are sniffed, a prediction request per radio sample.
	ticks := make([]repro.TickPrediction, 0, len(drive.Samples))
	ri, hi := 0, 0
	for _, smp := range drive.Samples {
		for ri < len(drive.Reports) && drive.Reports[ri].Time <= smp.Time {
			if err := client.SendReport(drive.Reports[ri]); err != nil {
				log.Fatal(err)
			}
			ri++
		}
		for hi < len(drive.Handovers) && drive.Handovers[hi].Time <= smp.Time {
			if err := client.SendHandover(drive.Handovers[hi]); err != nil {
				log.Fatal(err)
			}
			hi++
		}
		resp, err := client.SendSample(smp)
		if err != nil {
			log.Fatal(err)
		}
		ticks = append(ticks, repro.TickPrediction{Time: resp.Time, Type: resp.Type})
	}

	ev := repro.Evaluate(ticks, drive.Handovers, time.Second)
	fmt.Printf("streamed %d samples, %d reports, %d handovers over TCP\n",
		len(drive.Samples), len(drive.Reports), len(drive.Handovers))
	fmt.Printf("live prediction quality: F1=%.3f precision=%.3f recall=%.3f\n",
		ev.F1(), ev.Precision(), ev.Recall())
}
