package wire

import "testing"

func TestProtoStrings(t *testing.T) {
	want := map[Proto]string{
		ICMPv6: "ICMP", TCP80: "TCP/80", TCP443: "TCP/443",
		UDP53: "UDP/53", UDP443: "UDP/443",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
	if Proto(99).String() != "proto(99)" {
		t.Error("unknown proto formatting")
	}
}

func TestIsTCP(t *testing.T) {
	if !TCP80.IsTCP() || !TCP443.IsTCP() {
		t.Error("TCP protos misclassified")
	}
	if ICMPv6.IsTCP() || UDP53.IsTCP() || UDP443.IsTCP() {
		t.Error("non-TCP protos misclassified")
	}
}

func TestRespMask(t *testing.T) {
	var m RespMask
	if m.Any() || m.Count() != 0 || m.String() != "-" {
		t.Error("zero mask wrong")
	}
	m.Set(ICMPv6)
	m.Set(UDP53)
	if !m.Has(ICMPv6) || !m.Has(UDP53) || m.Has(TCP80) {
		t.Error("Has wrong")
	}
	if m.Count() != 2 {
		t.Errorf("Count = %d", m.Count())
	}
	if m.String() != "ICMP+UDP/53" {
		t.Errorf("String = %q", m.String())
	}
	// Setting twice is idempotent.
	m.Set(ICMPv6)
	if m.Count() != 2 {
		t.Error("double Set changed count")
	}
}

func TestProtosOrder(t *testing.T) {
	if len(Protos) != NumProtos {
		t.Fatal("Protos length")
	}
	for i, p := range Protos {
		if int(p) != i {
			t.Errorf("Protos[%d] = %d", i, p)
		}
	}
}
