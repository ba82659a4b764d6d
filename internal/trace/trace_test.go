package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/cellular"
)

func sampleLog() *Log {
	l := &Log{Carrier: "OpX", Arch: cellular.ArchNSA, RouteKind: "freeway"}
	for i := 0; i < 100; i++ {
		l.Samples = append(l.Samples, Sample{
			Time:       time.Duration(i) * SamplePeriod,
			OdometerM:  float64(i) * 1.45,
			SpeedMPS:   29,
			Arch:       cellular.ArchNSA,
			ServingLTE: CellObs{PCI: 5, Tech: cellular.TechLTE, Band: cellular.BandMid, RSRP: -95, Valid: true},
			TputMbps:   120,
		})
	}
	l.Reports = append(l.Reports,
		cellular.MeasurementReport{Time: 1 * time.Second, Event: cellular.EventA2, Tech: cellular.TechLTE},
		cellular.MeasurementReport{Time: 2 * time.Second, Event: cellular.EventA3, Tech: cellular.TechLTE},
		cellular.MeasurementReport{Time: 4 * time.Second, Event: cellular.EventB1, Tech: cellular.TechNR},
	)
	l.Handovers = append(l.Handovers,
		cellular.HandoverEvent{Time: 2*time.Second + 100*time.Millisecond, Type: cellular.HOLTEH, T1: 30 * time.Millisecond, T2: 45 * time.Millisecond},
		cellular.HandoverEvent{Time: 4*time.Second + 500*time.Millisecond, Type: cellular.HOSCGA, T1: 60 * time.Millisecond, T2: 85 * time.Millisecond},
	)
	return l
}

// TestWriteReadRoundTrip decodes Write's JSONL back record by record: a
// meta line, then the samples, reports and handovers in order, each equal
// to what was written.
func TestWriteReadRoundTrip(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if err := l.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var recs []record
	for dec := json.NewDecoder(&buf); dec.More(); {
		var rec record
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if want := 1 + len(l.Samples) + len(l.Reports) + len(l.Handovers); len(recs) != want {
		t.Fatalf("%d records, want %d", len(recs), want)
	}
	if m := recs[0].Meta; recs[0].Kind != "meta" || m == nil || m.Carrier != l.Carrier || m.Arch != l.Arch || m.RouteKind != l.RouteKind {
		t.Errorf("meta record %+v", recs[0])
	}
	if s := recs[1+50].Sample; s == nil || *s != l.Samples[50] {
		t.Errorf("sample 50 mismatch:\n got %+v\nwant %+v", s, l.Samples[50])
	}
	if h := recs[len(recs)-1].HO; h == nil || *h != l.Handovers[1] {
		t.Errorf("handover mismatch: %+v", h)
	}
}

func TestLogAccessors(t *testing.T) {
	l := sampleLog()
	if l.Duration() != 99*SamplePeriod {
		t.Errorf("Duration = %v", l.Duration())
	}
	if km := l.DistanceKM(); km <= 0 {
		t.Errorf("DistanceKM = %v", km)
	}
	if got := l.HandoversOfType(cellular.HOLTEH); len(got) != 1 {
		t.Errorf("HandoversOfType(LTEH) = %d", len(got))
	}
	if got := l.UniquePCIs(cellular.TechLTE); got != 1 {
		t.Errorf("UniquePCIs = %d", got)
	}
	if got := l.Window(time.Second, 2*time.Second); len(got) != 20 {
		t.Errorf("Window returned %d samples", len(got))
	}
	empty := &Log{}
	if empty.Duration() != 0 || empty.DistanceKM() != 0 {
		t.Error("empty log accessors")
	}
}
