package snap

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"expanse/internal/ip6"
)

func randAddrs(rng *rand.Rand, n int) []ip6.Addr {
	out := make([]ip6.Addr, n)
	for i := range out {
		out[i] = ip6.AddrFromUint64(rng.Uint64(), rng.Uint64())
	}
	return out
}

// writeSample builds a two-section snapshot exercising every codec.
func writeSample(t *testing.T, rng *rand.Rand) ([]byte, []ip6.Addr, []ip6.Prefix) {
	t.Helper()
	addrs := randAddrs(rng, rng.Intn(200))
	prefixes := make([]ip6.Prefix, rng.Intn(100))
	for i := range prefixes {
		prefixes[i] = ip6.PrefixFrom(ip6.AddrFromUint64(rng.Uint64(), 0), 16+rng.Intn(48))
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("META")
	w.U64(12345)
	w.Int(63)
	w.F64(16.0)
	w.Bool(true)
	w.U8(7)
	w.Bytes([]byte("pipeline"))
	w.Section("COLS")
	w.AddrCols(addrs)
	w.PrefixCols(prefixes)
	w.U16s([]uint16{0xffff, 0, 42})
	w.I32s([]int32{-1, 0, 1 << 20})
	w.Bits([]bool{true, false, true, true, false, false, false, true, true})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes(), addrs, prefixes
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		raw, addrs, prefixes := writeSample(t, rng)
		r, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		if tag, err := r.Next(); err != nil || tag != "META" {
			t.Fatalf("first section = %q, %v", tag, err)
		}
		if v := r.U64(); v != 12345 {
			t.Fatalf("U64 = %d", v)
		}
		if v := r.Int(); v != 63 {
			t.Fatalf("Int = %d", v)
		}
		if v := r.F64(); v != 16.0 {
			t.Fatalf("F64 = %v", v)
		}
		if !r.Bool() {
			t.Fatal("Bool = false")
		}
		if v := r.U8(); v != 7 {
			t.Fatalf("U8 = %d", v)
		}
		if s := r.Bytes(); string(s) != "pipeline" {
			t.Fatalf("Bytes = %q", s)
		}
		if r.Remaining() != 0 {
			t.Fatalf("META has %d stray bytes", r.Remaining())
		}
		if tag, err := r.Next(); err != nil || tag != "COLS" {
			t.Fatalf("second section = %q, %v", tag, err)
		}
		gotAddrs := r.AddrCols()
		if len(gotAddrs) != len(addrs) {
			t.Fatalf("AddrCols len %d, want %d", len(gotAddrs), len(addrs))
		}
		for i := range addrs {
			if gotAddrs[i] != addrs[i] {
				t.Fatalf("addr %d diverged", i)
			}
		}
		gotPfx := r.PrefixCols()
		if len(gotPfx) != len(prefixes) {
			t.Fatalf("PrefixCols len %d, want %d", len(gotPfx), len(prefixes))
		}
		for i := range prefixes {
			if gotPfx[i] != prefixes[i] {
				t.Fatalf("prefix %d diverged", i)
			}
		}
		u16s := r.U16s()
		if len(u16s) != 3 || u16s[2] != 42 {
			t.Fatalf("U16s = %v", u16s)
		}
		i32s := r.I32s()
		if len(i32s) != 3 || i32s[0] != -1 {
			t.Fatalf("I32s = %v", i32s)
		}
		bits := r.Bits()
		want := []bool{true, false, true, true, false, false, false, true, true}
		if len(bits) != len(want) {
			t.Fatalf("Bits len %d", len(bits))
		}
		for i := range want {
			if bits[i] != want[i] {
				t.Fatalf("bit %d diverged", i)
			}
		}
		if tag, err := r.Next(); !errors.Is(err, io.EOF) || tag != EndTag {
			t.Fatalf("end marker = %q, %v", tag, err)
		}
		if r.Err() != nil {
			t.Fatalf("Err = %v", r.Err())
		}
	}
}

// TestSkipUnknownSection pins the compatibility contract: readers
// iterate by tag and skip sections they don't know.
func TestSkipUnknownSection(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("NEWX")
	w.I32s(make([]int32, 100))
	w.Section("WANT")
	w.U64(99)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for {
		tag, err := r.Next()
		if err != nil {
			t.Fatalf("never found WANT: %v", err)
		}
		if tag != "WANT" {
			continue // skip without reading payload
		}
		if v := r.U64(); v != 99 {
			t.Fatalf("WANT payload = %d", v)
		}
		break
	}
}

func TestBadMagic(t *testing.T) {
	raw, _, _ := writeSample(t, rand.New(rand.NewSource(2)))
	mut := append([]byte(nil), raw...)
	mut[0] ^= 0xff
	if _, err := NewReader(bytes.NewReader(mut)); !errors.Is(err, ErrMagic) {
		t.Fatalf("err = %v, want ErrMagic", err)
	}
	if _, err := NewReader(bytes.NewReader(raw[:5])); !errors.Is(err, ErrMagic) {
		t.Fatalf("short header err = %v, want ErrMagic", err)
	}
}

func TestBadVersion(t *testing.T) {
	raw, _, _ := writeSample(t, rand.New(rand.NewSource(3)))
	mut := append([]byte(nil), raw...)
	mut[9] ^= 0x40 // flip a major-version bit
	if _, err := NewReader(bytes.NewReader(mut)); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestChecksumMismatch(t *testing.T) {
	raw, _, _ := writeSample(t, rand.New(rand.NewSource(4)))
	// Flip one payload byte inside the first section (header is 10
	// bytes, frame 12, so offset 30 is mid-payload).
	mut := append([]byte(nil), raw...)
	mut[30] ^= 1
	r, err := NewReader(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

// TestTruncation decodes every strict prefix of a valid snapshot; all
// must error (never panic, never succeed silently past the cut).
func TestTruncation(t *testing.T) {
	raw, _, _ := writeSample(t, rand.New(rand.NewSource(5)))
	for cut := 0; cut < len(raw); cut++ {
		r, err := NewReader(bytes.NewReader(raw[:cut]))
		if err != nil {
			continue // header already unreadable
		}
		sawErr := false
		for i := 0; i < 100; i++ {
			tag, err := r.Next()
			if errors.Is(err, io.EOF) && tag == EndTag {
				t.Fatalf("cut=%d: truncated file reached a clean end marker", cut)
			}
			if err != nil {
				sawErr = true
				break
			}
		}
		if !sawErr {
			t.Fatalf("cut=%d: no error surfaced", cut)
		}
	}
}

// TestHugeLengthRejected pins that a corrupted length prefix cannot
// drive a giant allocation: both section frames and column length
// prefixes are validated before use.
func TestHugeLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("COLS")
	w.U64(1 << 50) // forged column length with no payload behind it
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if got := r.I32s(); got != nil {
		t.Fatalf("I32s returned %d elements from forged length", len(got))
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Err = %v, want ErrCorrupt", r.Err())
	}

	// A forged section frame length is rejected before allocation too.
	raw := buf.Bytes()
	mut := append([]byte(nil), raw...)
	putU64(mut[14:], 1<<60) // section payload length field
	r2, err := NewReader(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged frame err = %v, want ErrCorrupt", err)
	}
}

// TestStickyErrors pins that reads after an error are inert zero-value
// no-ops rather than panics.
func TestStickyErrors(t *testing.T) {
	r, err := NewReader(bytes.NewReader(mustSample(t)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r.I32s() // overruns the META section quickly
	}
	if r.Err() == nil {
		t.Fatal("overrun did not surface an error")
	}
	if v := r.U64(); v != 0 {
		t.Fatalf("post-error U64 = %d", v)
	}
	if s := r.AddrCols(); s != nil {
		t.Fatalf("post-error AddrCols = %v", s)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("post-error Next succeeded")
	}
}

func mustSample(t *testing.T) []byte {
	t.Helper()
	raw, _, _ := writeSample(t, rand.New(rand.NewSource(6)))
	return raw
}

// FuzzReader hammers the decoder with mutated snapshots; the contract
// under fuzz is "errors, never panics", plus bounded allocation.
func FuzzReader(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	var tt testing.T
	raw, _, _ := writeSample(&tt, rng)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte("EXPSNAP\x00\x00\x01"))
	f.Add([]byte{})
	short := append([]byte(nil), raw...)
	short[20] ^= 0xff
	f.Add(short)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 64; i++ {
			tag, err := r.Next()
			if err != nil {
				return
			}
			_ = tag
			// Drain with a representative mix of field reads.
			r.U64()
			r.AddrCols()
			r.PrefixCols()
			r.U16s()
			r.I32s()
			r.Bits()
			r.Bytes()
			if r.Err() != nil {
				return
			}
		}
	})
}
