package policygen

import (
	"time"

	"repro/internal/cellular"
	"repro/internal/topology"
)

// The named-carrier parameter constants. These are the exact values the
// hand-coded tables in internal/ran used before policies became data;
// ran's golden test pins the generated tables against the originals, so
// changing any of these breaks golden traces on purpose.
const (
	builtinTTT    = 320 * time.Millisecond
	builtinTTTB1  = 480 * time.Millisecond
	builtinHyst   = 2.0
	builtinPeriod = 480 * time.Millisecond
	builtinA2LTE  = -100.0
	builtinA2NR   = -112.0
	builtinB1NR   = -106.0
	builtinA5Phi1 = -101.0
	builtinA5Phi2 = -99.0
)

// builtinLTEA3 is the A2+A3 LTE table used by OpX and unknown carriers.
func builtinLTEA3() []cellular.EventConfig {
	return []cellular.EventConfig{
		{Type: cellular.EventA2, Tech: cellular.TechLTE, Threshold1: builtinA2LTE, Hysteresis: builtinHyst, TTT: builtinTTT, ReportInterval: builtinPeriod, ReportAmount: 4},
		{Type: cellular.EventA3, Tech: cellular.TechLTE, Offset: 3.0, Hysteresis: builtinHyst, TTT: builtinTTT, ReportInterval: builtinPeriod, ReportAmount: 8},
	}
}

// builtinNR is the NSA dual-connectivity NR table shared by all named
// carriers: B1 discovery plus the NR A2/A3 events the SCG rules consume.
func builtinNR() []cellular.EventConfig {
	return []cellular.EventConfig{
		{Type: cellular.EventB1, Tech: cellular.TechNR, Threshold1: builtinB1NR, Hysteresis: builtinHyst, TTT: builtinTTTB1, ReportInterval: builtinPeriod, ReportAmount: 6},
		{Type: cellular.EventA2, Tech: cellular.TechNR, Threshold1: builtinA2NR, Hysteresis: builtinHyst, TTT: builtinTTT, ReportInterval: 320 * time.Millisecond, ReportAmount: 6},
		{Type: cellular.EventA3, Tech: cellular.TechNR, Offset: 3.0, Hysteresis: builtinHyst, TTT: builtinTTT, ReportInterval: builtinPeriod, ReportAmount: 8},
	}
}

// builtinSA is the standalone table, identical across named carriers:
// conservatively configured (larger offset and TTT), per the paper's
// finding that SA handovers are markedly less frequent (§5.1).
func builtinSA() []cellular.EventConfig {
	return []cellular.EventConfig{
		{Type: cellular.EventA2, Tech: cellular.TechNR, Threshold1: builtinA2NR, Hysteresis: builtinHyst, TTT: 480 * time.Millisecond, ReportInterval: builtinPeriod, ReportAmount: 4},
		{Type: cellular.EventA3, Tech: cellular.TechNR, Offset: 5.0, Hysteresis: builtinHyst, TTT: 480 * time.Millisecond, ReportInterval: builtinPeriod, ReportAmount: 8},
	}
}

// OpX returns the OpX-analogue portfolio: NSA only, [A2,A3] LTE decision
// sequence, NR low-band + mmWave deployment.
func OpX() Portfolio {
	return Portfolio{
		Name:        "OpX",
		Archs:       []cellular.Arch{cellular.ArchNSA},
		LTESequence: []string{"A2", "A3"},
		LTEEvents:   builtinLTEA3(),
		NREvents:    builtinNR(),
		SAEvents:    builtinSA(),
		Deployment:  topology.OpX(),
	}
}

// OpY returns the OpY-analogue portfolio: NSA + SA, [A3] decision
// sequence, NR low-band + mid-band deployment.
func OpY() Portfolio {
	return Portfolio{
		Name:        "OpY",
		Archs:       []cellular.Arch{cellular.ArchNSA, cellular.ArchSA},
		LTESequence: []string{"A3"},
		LTEEvents:   builtinLTEA3(),
		NREvents:    builtinNR(),
		SAEvents:    builtinSA(),
		Deployment:  topology.OpY(),
	}
}

// OpZ returns the OpZ-analogue portfolio: NSA only, [A2,A5] decision
// sequence (the only named carrier using A5), NR low-band + mmWave.
func OpZ() Portfolio {
	return Portfolio{
		Name:        "OpZ",
		Archs:       []cellular.Arch{cellular.ArchNSA},
		LTESequence: []string{"A2", "A5"},
		LTEEvents: []cellular.EventConfig{
			{Type: cellular.EventA2, Tech: cellular.TechLTE, Threshold1: builtinA2LTE, Hysteresis: builtinHyst, TTT: builtinTTT, ReportInterval: builtinPeriod, ReportAmount: 4},
			{Type: cellular.EventA5, Tech: cellular.TechLTE, Threshold1: builtinA5Phi1, Threshold2: builtinA5Phi2, Hysteresis: builtinHyst, TTT: builtinTTT, ReportInterval: builtinPeriod, ReportAmount: 8},
		},
		NREvents:   builtinNR(),
		SAEvents:   builtinSA(),
		Deployment: topology.OpZ(),
	}
}

// BuiltinOrDefault returns the named portfolio, or the historical
// unknown-carrier fallback: an OpX-style event table with a bare [A3]
// decision sequence. (The fallback deliberately reproduces the pre-refactor
// quirk that an unknown carrier's decision sequence was [A3] while its LTE
// table was OpX's — golden traces depend on it.)
func BuiltinOrDefault(name string) Portfolio {
	switch name {
	case "OpX":
		return OpX()
	case "OpY":
		return OpY()
	case "OpZ":
		return OpZ()
	}
	dep := topology.OpX()
	dep.Name = name
	return Portfolio{
		Name:        name,
		Archs:       []cellular.Arch{cellular.ArchNSA, cellular.ArchSA},
		LTESequence: []string{"A3"},
		LTEEvents:   builtinLTEA3(),
		NREvents:    builtinNR(),
		SAEvents:    builtinSA(),
		Deployment:  dep,
	}
}
