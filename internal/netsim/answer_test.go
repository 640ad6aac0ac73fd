package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"expanse/internal/hash64"
	"expanse/internal/ip6"
	"expanse/internal/wire"
)

// Pins for the answer kernel. An answer has two halves: deciding whether
// the owner answers at all, and describing the answer (hop limit, SYN-ACK
// fingerprint, timestamp). Lanes that record only OK skip the second
// half, so the pins here hold both halves to what Probe answered before
// they were split.

// answerDays straddle pool rotations and sit on either side of the
// earliest host deaths; answerTimes fall in different parts of a client's
// daily uptime window.
var (
	answerDays  = []int{2, 9, 30}
	answerTimes = []wire.Time{7, 4_000_000_001, 30_000_000_013, 61_000_000_029, 86_000_000_041}
)

// ownerMix is a fixed destination list that reaches every kind of owner
// and every branch an answer can take: plain aliased regions, a region's
// hole, the SYN proxy and the rate-limited region across all sixteen
// branches, the TTL-flip, window-, MSS- and proxy-mix quirk regions,
// hosts that die, flap on QUIC or keep client hours, hosts on networks
// with and without the iTTL-flip flag, every member of a sample of
// subscriber lines on each of answerDays (CPE, NAS, client) and
// addresses nobody owns. The order is fixed by the world alone.
func ownerMix(in *Internet) []ip6.Addr {
	rng := rand.New(rand.NewSource(0x0a5e1))
	var out []ip6.Addr
	plain := 0
	for i := range in.regions {
		r := &in.regions[i]
		n := 0
		switch {
		case r.Quirks&(QuirkSYNProxy|QuirkRateLimit) != 0:
			for b := uint64(0); b < 16; b++ {
				out = append(out, r.Prefix.Subprefix(r.Prefix.Bits()+4, b).RandomAddr(rng))
			}
		case r.Quirks&QuirkProxyMix != 0:
			n = 32
		case r.Quirks != 0:
			n = 6
		case plain < 12:
			plain++
			n = 4
		}
		for ; n > 0; n-- {
			out = append(out, r.Prefix.RandomAddr(rng))
		}
		if !r.Hole.IsZero() {
			for j := 0; j < 6; j++ {
				out = append(out, r.Hole.RandomAddr(rng))
			}
		}
	}
	var dying, quic, client, flagged, plainHosts int
	for pos := int32(0); pos < int32(in.hc.n()); pos++ {
		h := in.hc.hostAt(pos)
		take := false
		switch {
		case h.DeathDay >= 0 && int(h.DeathDay) <= answerDays[len(answerDays)-1] && dying < 24:
			dying++
			take = true
		case h.QUICFlaky && quic < 24:
			quic++
			take = true
		case (h.Class == ClassClient || h.Class == ClassBitnode) && client < 24:
			client++
			take = true
		default:
			if ni := in.networkOf(h.Addr); ni >= 0 && in.nets[ni].jitter && flagged < 24 {
				flagged++
				take = true
			} else if (ni < 0 || !in.nets[ni].jitter) && plainHosts < 24 {
				plainHosts++
				take = true
			}
		}
		if take {
			out = append(out, h.Addr)
		}
	}
	for i := range in.isps {
		if i%6 != 0 {
			continue
		}
		isp := &in.isps[i]
		for line := uint64(0); line < uint64(isp.lines); line += uint64(isp.lines/8 + 1) {
			for _, day := range answerDays {
				out = append(out, isp.cpeAddr(line, day))
				if a, ok := isp.clientAddr(line, day); ok {
					out = append(out, a)
				}
			}
		}
		nas := 0
		for line := uint64(0); line < uint64(isp.lines) && nas < 4; line++ {
			if isp.hostsDomain(line) && isp.nasLine(line) {
				nas++
				for _, day := range answerDays {
					out = append(out, isp.nasAddr(line, day))
				}
			}
		}
	}
	for i := 0; i < 16; i++ {
		out = append(out, ip6.AddrFromUint64(rng.Uint64(), rng.Uint64()))
	}
	return out
}

// probeDigest hashes Probe's full response — OK, hop limit, the SYN-ACK
// fingerprint and its timestamp value — for every destination of the
// owner mix on every protocol, day and send time.
func probeDigest(in *Internet, mix []ip6.Addr) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, dst := range mix {
		for _, p := range wire.Protos {
			for _, day := range answerDays {
				for _, at := range answerTimes {
					r := in.Probe(dst, p, day, at)
					if !r.OK {
						h.Write([]byte{0})
						continue
					}
					h.Write([]byte{1, r.HopLimit})
					if r.TCP == nil {
						continue
					}
					h.Write([]byte(r.TCP.Options()))
					put(uint64(r.TCP.MSS)<<32 | uint64(r.TCP.WScale)<<16 | uint64(r.TCP.WSize))
					if r.TCP.TSPresent {
						put(1<<32 | uint64(r.TCP.TSVal))
					} else {
						put(0)
					}
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedProbeDigest is probeDigest over the test world, captured before
// answers were split into a decide and a describe half. It moves only in
// a deliberate re-pin of the answer kernel.
const pinnedProbeDigest = "11230efd9babe87d3f83a95248f8738cddde9d8dd863f03929d7fe3357d3c1a6"

// TestProbeResponsesPinned pins Probe's full answers over the owner mix:
// every protocol, three days, five send times.
func TestProbeResponsesPinned(t *testing.T) {
	mix := ownerMix(world)
	seen := map[string]int{}
	for _, dst := range mix {
		for _, day := range answerDays {
			var o owner
			c := world.cursors()
			world.locate(&c, dst, day, &o)
			seen[[...]string{"none", "alias", "host", "line"}[o.kind]]++
			if o.kind == ownerLine {
				seen[[...]string{"", "cpe", "client", "nas"}[o.member]]++
			}
		}
	}
	for _, kind := range []string{"none", "alias", "host", "cpe", "client", "nas"} {
		if seen[kind] == 0 {
			t.Fatalf("owner mix reaches no %s owner: %v", kind, seen)
		}
	}
	if got := probeDigest(world, mix); got != pinnedProbeDigest {
		t.Fatalf("Probe responses over %d destinations digest to %s, want %s", len(mix), got, pinnedProbeDigest)
	}
}

// FuzzAnswerLevels holds the decide half to the full answer: for a
// destination near one of the owner mix's (a fuzzed index into it plus a
// fuzzed offset on its low word: other branches, neighbouring hosts,
// stale line addresses, misses), a fuzzed protocol, day and send time,
// the bit ProbeLanes writes on a lane that records only OK must equal
// both the OK of a full-column lane of the same probe in the same call
// and Probe's OK. Along the way it holds hash3, now the join of two
// halves the loss draws compute apart, to the one-piece form it replaced.
func FuzzAnswerLevels(f *testing.F) {
	mix := ownerMix(world)
	f.Add(uint16(0), uint64(0), uint8(0), uint8(2), uint64(7))
	f.Add(uint16(40), uint64(1), uint8(1), uint8(9), uint64(4_000_000_001))
	f.Add(uint16(700), uint64(0), uint8(4), uint8(30), uint64(61_000_000_029))
	f.Add(uint16(900), uint64(256), uint8(0), uint8(31), uint64(86_000_000_041))
	f.Fuzz(func(t *testing.T, idx uint16, off uint64, proto uint8, day uint8, at uint64) {
		base := mix[int(idx)%len(mix)]
		dst := ip6.AddrFromUint64(base.Hi(), base.Lo()+off)
		p := wire.Protos[int(proto)%wire.NumProtos]
		d := int(day % 64)
		when := wire.Time(at % (2 * 86_400_000_000))
		var okOnly, full wire.ResultColumns
		okOnly.ResetOK(1)
		full.Reset(1)
		at1 := []wire.Time{when}
		lanes := []wire.Lane{{Proto: p, At: at1, Out: &okOnly}, {Proto: p, At: at1, Out: &full}}
		world.ProbeLanes([]ip6.Addr{dst}, d, lanes, 0)
		want := world.Probe(dst, p, d, when).OK
		if okOnly.OK.Get(0) != want || full.OK.Get(0) != want {
			t.Fatalf("%v %v day %d at %d: OK-only lane %v, full lane %v, Probe %v",
				dst, p, d, when, okOnly.OK.Get(0), full.OK.Get(0), want)
		}
		// The draws join halves computed apart; the join must be the
		// one-piece hash3 it replaced.
		if got, want := hash3(off, at, uint64(idx)), hash64.Mix(hash2(off, at)^hash64.Mix(uint64(idx)+0x9e3779b97f4a7c15)); got != want {
			t.Fatalf("hash3(%#x, %#x, %#x) = %#x, the one-piece form says %#x", off, at, idx, got, want)
		}
	})
}
