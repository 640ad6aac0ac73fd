package fingerprint

import (
	"testing"

	"expanse/internal/wire"
)

// Option layouts the samples use: indices into wire.OptionLayouts.
const (
	linuxLayout = 0 // "MSS-SACK-TS-N-WS"
	mssLayout   = 4 // "MSS"
)

func tcp(layout int, mss uint16, ws uint8, wsize uint16, tsPresent bool, tsval uint32) wire.TCPInfo {
	return wire.TCPInfo{TCPFingerprint: wire.NewTCPFingerprint(layout, mss, ws, wsize, tsPresent), TSVal: tsval}
}

func TestITTL(t *testing.T) {
	cases := map[uint8]uint8{
		1: 32, 30: 32, 32: 32,
		33: 64, 58: 64, 64: 64,
		65: 128, 120: 128, 128: 128,
		129: 255, 250: 255, 255: 255,
	}
	for hl, want := range cases {
		if got := ITTL(hl); got != want {
			t.Errorf("ITTL(%d) = %d, want %d", hl, got, want)
		}
	}
}

// aliasedSamples builds 16 samples that look like one machine with a
// monotonic timestamp clock.
func aliasedSamples() []Sample {
	var out []Sample
	for i := 0; i < 16; i++ {
		out = append(out, Sample{
			SentAt:   wire.Time(i * 1000),
			HopLimit: 57,
			TCP:      tcp(linuxLayout, 1440, 7, 28800, true, 1000+uint32(i*10)),
		})
	}
	return out
}

func TestAnalyzeAliasedConsistent(t *testing.T) {
	rep := Analyze(aliasedSamples())
	if rep.Inconsistent() {
		t.Fatalf("aliased samples inconsistent: %+v", rep)
	}
	if !rep.TSConsistent || rep.TSWhichPassed != "monotonic" {
		t.Errorf("timestamp test: %+v", rep)
	}
	if rep.Samples != 16 {
		t.Errorf("samples = %d", rep.Samples)
	}
}

func TestAnalyzeSameTimestamp(t *testing.T) {
	s := aliasedSamples()
	for i := range s {
		s[i].TCP = tcp(linuxLayout, 1440, 7, 28800, true, 777)
	}
	rep := Analyze(s)
	if !rep.TSConsistent || rep.TSWhichPassed != "same" {
		t.Errorf("same-TS not detected: %+v", rep)
	}
}

func TestAnalyzeNoTimestamps(t *testing.T) {
	s := aliasedSamples()
	for i := range s {
		s[i].TCP = tcp(mssLayout, 1440, 7, 28800, false, 0)
	}
	rep := Analyze(s)
	// Uniformly missing counts as "same (or missing)".
	if !rep.TSConsistent {
		t.Errorf("uniformly missing TS should pass check 1: %+v", rep)
	}
}

func TestAnalyzeMixedTimestampPresence(t *testing.T) {
	s := aliasedSamples()
	s[3].TCP = tcp(linuxLayout, 1440, 7, 28800, false, 0)
	rep := Analyze(s)
	if rep.TSConsistent {
		t.Error("mixed TS presence cannot be one machine")
	}
	if !rep.TSIndecisive {
		t.Error("should be indecisive")
	}
}

func TestAnalyzeRegression(t *testing.T) {
	// Not strictly monotonic in probe order (small jitter), but globally
	// linear: regression must catch it.
	s := aliasedSamples()
	base := []uint32{1000, 1011, 1019, 1032, 1038, 1052, 1058, 1071,
		1082, 1089, 1102, 1108, 1121, 1131, 1139, 1152}
	for i := range s {
		v := base[i]
		if i == 5 {
			v -= 20 // one reordering blemish breaks monotonicity
		}
		s[i].TCP = tcp(linuxLayout, 1440, 7, 28800, true, v)
	}
	rep := Analyze(s)
	if !rep.TSConsistent || rep.TSWhichPassed != "regression" {
		t.Errorf("regression test should pass: %+v", rep)
	}
}

func TestAnalyzePerTupleRandomized(t *testing.T) {
	// Linux ≥ 4.10 behaviour: random base per destination → no global
	// line, no monotonicity, not all same → indecisive, not inconsistent.
	s := aliasedSamples()
	bases := []uint32{0x1a2b3c4d, 0x9f8e7d6c, 0x22222222, 0x7b2a9c01,
		0x5d5d5d5d, 0x01020304, 0xdeadbeef, 0x13579bdf,
		0x2468ace0, 0x0f0f0f0f, 0xcafebabe, 0x31415926,
		0x27182818, 0x16180339, 0x70707070, 0x4a4b4c4e}
	for i := range s {
		s[i].TCP = tcp(linuxLayout, 1440, 7, 28800, true, bases[i]+uint32(i*10))
	}
	rep := Analyze(s)
	if rep.Inconsistent() {
		t.Error("per-tuple TS must not make value tests inconsistent")
	}
	if rep.TSConsistent {
		t.Error("per-tuple randomized TS should not pass")
	}
	if !rep.TSIndecisive {
		t.Error("should be indecisive")
	}
}

func TestAnalyzeValueInconsistencies(t *testing.T) {
	mk := func(mut func(s []Sample)) Report {
		s := aliasedSamples()
		mut(s)
		return Analyze(s)
	}
	if r := mk(func(s []Sample) { s[2].HopLimit = 250 }); !r.ITTLInconsistent {
		t.Error("iTTL inconsistency missed")
	}
	// Differing raw hop limits with same iTTL are fine (on-path effects).
	if r := mk(func(s []Sample) { s[2].HopLimit = 60 }); r.ITTLInconsistent {
		t.Error("same-iTTL TTL jitter misflagged")
	}
	if r := mk(func(s []Sample) { s[2].TCP.TCPFingerprint = wire.NewTCPFingerprint(mssLayout, 1440, 7, 28800, true) }); !r.OptionsInconsistent {
		t.Error("options inconsistency missed")
	}
	if r := mk(func(s []Sample) { s[2].TCP.WScale = 2 }); !r.WScaleInconsistent {
		t.Error("wscale inconsistency missed")
	}
	if r := mk(func(s []Sample) { s[2].TCP.MSS = 1380 }); !r.MSSInconsistent {
		t.Error("MSS inconsistency missed")
	}
	if r := mk(func(s []Sample) { s[2].TCP.WSize = 11111 }); !r.WSizeInconsistent {
		t.Error("wsize inconsistency missed")
	}
}

func TestAnalyzeFewSamples(t *testing.T) {
	if rep := Analyze(nil); rep.Samples != 0 || rep.Inconsistent() {
		t.Error("empty analysis wrong")
	}
	one := aliasedSamples()[:1]
	if rep := Analyze(one); rep.Samples != 1 || rep.TSConsistent {
		t.Error("single sample should be indecisive")
	}
	// Non-TCP samples are skipped.
	s := []Sample{{SentAt: 0, HopLimit: 50}}
	if rep := Analyze(s); rep.Samples != 0 {
		t.Error("sample without a SYN-ACK counted")
	}
}

func TestTabulate(t *testing.T) {
	var reports []Report
	// 3 fully consistent with TS; 1 MSS-inconsistent; 1 indecisive.
	for i := 0; i < 3; i++ {
		reports = append(reports, Report{TSConsistent: true})
	}
	reports = append(reports, Report{MSSInconsistent: true})
	reports = append(reports, Report{TSIndecisive: true})
	tal := Tabulate(reports)
	if tal.Prefixes != 5 || tal.MSS != 1 || tal.AnyInconsistent != 1 ||
		tal.TSConsistent != 3 || tal.Indecisive != 1 {
		t.Errorf("tally = %+v", tal)
	}
	// Cumulative: only the MSS failure, appearing from stage 3 on.
	want := [5]int{0, 0, 0, 1, 1}
	if tal.Cumulative != want {
		t.Errorf("cumulative = %v, want %v", tal.Cumulative, want)
	}
	inc, cons, ind := tal.Shares()
	if inc != 0.2 || cons != 0.6 || ind != 0.2 {
		t.Errorf("shares = %v, %v, %v", inc, cons, ind)
	}
}

func TestTallySharesEmpty(t *testing.T) {
	var tal Tally
	a, b, c := tal.Shares()
	if a != 0 || b != 0 || c != 0 {
		t.Error("empty shares must be zero")
	}
}
