package wire

import (
	"math/rand"
	"testing"
	"unsafe"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if len(b) != 3 {
		t.Fatalf("words = %d", len(b))
	}
	for _, i := range []int{0, 63, 64, 127, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 5 {
		t.Fatalf("count = %d", b.Count())
	}
	// Bits beyond the recorded width read as absent, never panic.
	for _, i := range []int{192, 1 << 20} {
		if b.Get(i) {
			t.Fatalf("bit %d beyond the bitset reads set", i)
		}
	}
	if Bitset(nil).Get(0) {
		t.Fatal("nil bitset reads set")
	}
	b.Reset(130)
	if b.Count() != 0 {
		t.Fatal("Reset left bits")
	}
	b.Reset(300)
	if len(b) != 5 {
		t.Fatalf("grown words = %d", len(b))
	}
}

// TestBitsetExtract16 pins the windowed extraction against per-bit reads,
// including windows straddling word boundaries and the bitset's end.
func TestBitsetExtract16(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 500
	b := NewBitset(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			b.Set(i)
		}
	}
	for off := 0; off < n; off += 5 {
		var want uint16
		for j := 0; j < 16; j++ {
			if off+j < n && b.Get(off+j) {
				want |= 1 << j
			}
		}
		if got := b.Extract16(off); got != want {
			t.Fatalf("Extract16(%d) = %04x, want %04x", off, got, want)
		}
	}
}

// FuzzExtract16 holds Extract16 to 16 Get calls over random words and
// offsets, offsets past the bitset's end included.
func FuzzExtract16(f *testing.F) {
	f.Add(uint64(0xdeadbeefcafef00d), uint64(0x0123456789abcdef), uint8(2), uint16(0))
	f.Add(uint64(1<<63), uint64(1), uint8(2), uint16(49))
	f.Add(^uint64(0), ^uint64(0), uint8(1), uint16(60))
	f.Add(uint64(0), uint64(0), uint8(0), uint16(7))
	f.Fuzz(func(t *testing.T, w0, w1 uint64, words uint8, off uint16) {
		b := Bitset{w0, w1, w0 ^ w1}[:words%4]
		o := int(off) % (64*len(b) + 80)
		var want uint16
		for j := 0; j < 16; j++ {
			if b.Get(o + j) {
				want |= 1 << j
			}
		}
		if got := b.Extract16(o); got != want {
			t.Fatalf("%d-word bitset %x: Extract16(%d) = %04x, Get says %04x", len(b), []uint64(b), o, got, want)
		}
	})
}

// TestTCPFingerprintValue pins the fingerprint's value semantics: at most
// 8 bytes, the zero value invalid and distinct from every constructed
// fingerprint, each field part of ==, and Options naming the layout.
func TestTCPFingerprintValue(t *testing.T) {
	if size := unsafe.Sizeof(TCPFingerprint{}); size > 8 {
		t.Fatalf("TCPFingerprint is %d bytes, want at most 8", size)
	}
	var zero TCPFingerprint
	if zero.Valid() || zero.Options() != "" {
		t.Fatalf("zero fingerprint: Valid %v, Options %q", zero.Valid(), zero.Options())
	}
	for layout, text := range OptionLayouts {
		fp := NewTCPFingerprint(layout, 0, 0, 0, false)
		if !fp.Valid() || fp == zero || fp.Options() != text {
			t.Fatalf("layout %d: %+v, Valid %v, Options %q", layout, fp, fp.Valid(), fp.Options())
		}
	}
	a := NewTCPFingerprint(0, 1440, 7, 28800, true)
	variants := []TCPFingerprint{
		NewTCPFingerprint(1, 1440, 7, 28800, true),
		NewTCPFingerprint(0, 1460, 7, 28800, true),
		NewTCPFingerprint(0, 1440, 8, 28800, true),
		NewTCPFingerprint(0, 1440, 7, 28801, true),
		NewTCPFingerprint(0, 1440, 7, 28800, false),
	}
	for i, b := range variants {
		if a == b {
			t.Fatalf("variant %d (%+v) compares equal to %+v", i, b, a)
		}
	}
	if NewTCPFingerprint(0, 1440, 7, 28800, true) != a {
		t.Fatal("equal fields, unequal fingerprints")
	}
}

// TestResultColumnsRoundtrip pins the columns as a lossless form of a
// Response: written the way a responder writes them, each column index
// reads back as the response it came from, and Reset clears it.
func TestResultColumnsRoundtrip(t *testing.T) {
	var cols ResultColumns
	cols.Reset(3)
	responses := []Response{
		{},
		{OK: true, HopLimit: 55},
		{OK: true, HopLimit: 240, TCP: &TCPInfo{
			TCPFingerprint: NewTCPFingerprint(0, 1440, 7, 28800, true),
			TSVal:          12345,
		}},
	}
	for i, r := range responses {
		if !r.OK {
			continue
		}
		cols.OK.Set(i)
		cols.HopLimit[i] = r.HopLimit
		if r.TCP != nil {
			cols.TCP[i] = r.TCP.TCPFingerprint
			cols.TSVal[i] = r.TCP.TSVal
		}
	}
	if cols.OK.Get(0) || !cols.OK.Get(1) || !cols.OK.Get(2) {
		t.Fatal("OK bits wrong")
	}
	if cols.HopLimit[1] != 55 || cols.HopLimit[2] != 240 {
		t.Fatal("hop limits wrong")
	}
	if cols.TCP[0].Valid() || cols.TCP[1].Valid() {
		t.Fatal("phantom TCP fingerprint")
	}
	if got := (TCPInfo{cols.TCP[2], cols.TSVal[2]}); got != *responses[2].TCP {
		t.Fatalf("TCP roundtrip = %+v", got)
	}
	// Reset reuses arrays but clears state.
	cols.Reset(3)
	if cols.OK.Count() != 0 || cols.TCP[2].Valid() || cols.TSVal[2] != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestRespMaskCountExhaustive(t *testing.T) {
	for m := 0; m < 1<<NumProtos; m++ {
		mask := RespMask(m)
		want := 0
		for _, p := range Protos {
			if mask.Has(p) {
				want++
			}
		}
		if mask.Count() != want {
			t.Fatalf("Count(%05b) = %d, want %d", m, mask.Count(), want)
		}
	}
}
