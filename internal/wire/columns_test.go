package wire

import (
	"math/rand"
	"sync"
	"testing"
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

func TestTCPTableIntern(t *testing.T) {
	var tab TCPTable
	a := TCPFingerprint{OptionsText: "MSS-SACK-TS-N-WS", MSS: 1440, WScale: 7, WSize: 28800, TSPresent: true}
	b := a
	b.WSize++
	ra, rb := tab.Intern(a), tab.Intern(b)
	if ra == rb {
		t.Fatal("distinct fingerprints interned to one ref")
	}
	if tab.Intern(a) != ra || tab.Intern(b) != rb {
		t.Fatal("re-interning changed refs")
	}
	if tab.Len() != 2 {
		t.Fatalf("table len = %d", tab.Len())
	}
	if tab.Fingerprint(ra) != a || tab.Fingerprint(rb) != b {
		t.Fatal("Fingerprint roundtrip failed")
	}
}

// TestTCPTableConcurrent hammers one table from many goroutines: refs
// must stay consistent (equal fingerprints → equal refs, refs resolve
// back to their fingerprints). Run under -race in CI.
func TestTCPTableConcurrent(t *testing.T) {
	var tab TCPTable
	fps := make([]TCPFingerprint, 24)
	for i := range fps {
		fps[i] = TCPFingerprint{OptionsText: "MSS", MSS: uint16(i), WSize: 100}
	}
	var wg sync.WaitGroup
	refs := make([][]TCPRef, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			refs[g] = make([]TCPRef, len(fps))
			for i, fp := range fps {
				refs[g][i] = tab.Intern(fp)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := range fps {
			if refs[g][i] != refs[0][i] {
				t.Fatalf("goroutine %d got ref %d for fp %d, want %d", g, refs[g][i], i, refs[0][i])
			}
		}
	}
	if tab.Len() != len(fps) {
		t.Fatalf("table len = %d, want %d", tab.Len(), len(fps))
	}
	for i, fp := range fps {
		if tab.Fingerprint(refs[0][i]) != fp {
			t.Fatalf("fingerprint %d does not roundtrip", i)
		}
	}
}

// TestResultColumnsRoundtrip pins TCPInfoAt as the inverse of a column
// write: a Response written into the columns the way a responder writes
// them (fingerprint interned) materializes back identically.
func TestResultColumnsRoundtrip(t *testing.T) {
	var tab TCPTable
	var cols ResultColumns
	cols.Reset(3, &tab)
	responses := []Response{
		{},
		{OK: true, HopLimit: 55},
		{OK: true, HopLimit: 240, TCP: &TCPInfo{
			OptionsText: "MSS-SACK-TS-N-WS", MSS: 1440, WScale: 7, WSize: 28800,
			TSPresent: true, TSVal: 12345,
		}},
	}
	for i, r := range responses {
		if !r.OK {
			continue
		}
		cols.OK.Set(i)
		cols.HopLimit[i] = r.HopLimit
		if r.TCP != nil {
			cols.TCPRef[i] = tab.Intern(TCPFingerprint{
				OptionsText: r.TCP.OptionsText, MSS: r.TCP.MSS, WScale: r.TCP.WScale,
				WSize: r.TCP.WSize, TSPresent: r.TCP.TSPresent,
			})
			cols.TSVal[i] = r.TCP.TSVal
		}
	}
	if cols.OK.Get(0) || !cols.OK.Get(1) || !cols.OK.Get(2) {
		t.Fatal("OK bits wrong")
	}
	if cols.HopLimit[1] != 55 || cols.HopLimit[2] != 240 {
		t.Fatal("hop limits wrong")
	}
	if cols.TCPInfoAt(0) != nil || cols.TCPInfoAt(1) != nil {
		t.Fatal("phantom TCP info")
	}
	if got := cols.TCPInfoAt(2); got == nil || *got != *responses[2].TCP {
		t.Fatalf("TCP roundtrip = %+v", got)
	}
	// Reset reuses arrays but clears state.
	cols.Reset(3, &tab)
	if cols.OK.Count() != 0 || cols.TCPRef[2] != NoTCP || cols.TSVal[2] != 0 {
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
