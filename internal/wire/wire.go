// Package wire defines the probe/response vocabulary shared between the
// prober (the ZMapv6 analogue), the simulated Internet that answers
// probes, and the fingerprinting analyses. It plays the role gopacket's
// layer types play for real packet captures: a compact, protocol-neutral
// description of what was sent and what came back.
package wire

import (
	"fmt"
	"math/bits"
)

// Proto identifies one of the five probe protocols the paper scans
// (§6: "We send probes on ICMP, TCP/80, TCP/443, UDP/53, and UDP/443").
type Proto uint8

// The probed protocols, in the paper's order.
const (
	ICMPv6 Proto = iota
	TCP80
	TCP443
	UDP53
	UDP443
	NumProtos = 5
)

// Protos lists all probe protocols in canonical order.
var Protos = [NumProtos]Proto{ICMPv6, TCP80, TCP443, UDP53, UDP443}

// String returns the paper's display name for the protocol.
func (p Proto) String() string {
	switch p {
	case ICMPv6:
		return "ICMP"
	case TCP80:
		return "TCP/80"
	case TCP443:
		return "TCP/443"
	case UDP53:
		return "UDP/53"
	case UDP443:
		return "UDP/443"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// IsTCP reports whether the protocol elicits TCP option fingerprints.
func (p Proto) IsTCP() bool { return p == TCP80 || p == TCP443 }

// Time is a virtual timestamp in microseconds since the start of a
// simulation day. The prober assigns monotonically increasing send times;
// machines derive TCP timestamp values from it.
type Time uint64

// OptionLayouts are the TCP option layouts a SYN-ACK can carry, in the
// order-preserving notation of ZMap's tcp_synopt module ("N" is a padding
// byte). The paper finds 99.5% of responsive hosts choose the first.
var OptionLayouts = [...]string{
	"MSS-SACK-TS-N-WS",     // dominant (Linux-style)
	"MSS-N-WS-N-N-TS-SACK", // macOS-style
	"MSS-N-WS-SACK-TS",
	"MSS-SACK-TS",
	"MSS",
}

// TCPFingerprint is the static part of a SYN-ACK, everything the §5.4
// tests compare except the timestamp value, which advances per probe. It
// is an 8-byte comparable value: two answers show the same stack
// personality iff their fingerprints are ==. The zero value means "no
// SYN-ACK"; a real answer is built by NewTCPFingerprint, which always
// sets a layout, so it is never zero.
type TCPFingerprint struct {
	// MSS is the maximum segment size option value.
	MSS uint16
	// WSize is the advertised receive window.
	WSize uint16
	// WScale is the window scale option value.
	WScale uint8
	// TSPresent reports whether a TCP timestamp option was returned.
	TSPresent bool
	// layout is 1 + the index of the option layout in OptionLayouts.
	layout uint8
}

// NewTCPFingerprint returns the fingerprint of a SYN-ACK whose options
// follow OptionLayouts[layout].
func NewTCPFingerprint(layout int, mss uint16, wscale uint8, wsize uint16, tsPresent bool) TCPFingerprint {
	_ = OptionLayouts[layout] // a layout outside the table panics here, not at Options
	return TCPFingerprint{MSS: mss, WSize: wsize, WScale: wscale, TSPresent: tsPresent, layout: uint8(layout + 1)}
}

// Valid reports whether f describes a SYN-ACK (the zero value does not).
func (f TCPFingerprint) Valid() bool { return f.layout != 0 }

// Options returns the option layout string, e.g. "MSS-SACK-TS-N-WS" (""
// for the zero value).
func (f TCPFingerprint) Options() string {
	if f.layout == 0 {
		return ""
	}
	return OptionLayouts[f.layout-1]
}

// TCPInfo carries the fingerprint-relevant fields of one TCP SYN-ACK,
// mirroring the ZMap tcp_synopt module output the paper uses in §5.4: the
// static fingerprint plus the per-probe timestamp value.
type TCPInfo struct {
	TCPFingerprint
	// TSVal is the remote timestamp value (only if TSPresent).
	TSVal uint32
}

// Response is the result of one probe, materialized: the per-probe form
// of one column index of ResultColumns.
type Response struct {
	// OK reports whether any positive response arrived (echo reply,
	// SYN-ACK, DNS answer, QUIC version negotiation).
	OK bool
	// HopLimit is the received hop limit, i.e. the initial TTL chosen by
	// the responder minus the path length. Zero when !OK.
	HopLimit uint8
	// TCP holds SYN-ACK option details for TCP probes that used the
	// options module; nil otherwise.
	TCP *TCPInfo
}

// RespMask is a bitmask over Protos recording which protocols responded.
type RespMask uint8

// Set marks protocol p as responsive.
func (m *RespMask) Set(p Proto) { *m |= 1 << p }

// Has reports whether protocol p responded.
func (m RespMask) Has(p Proto) bool { return m&(1<<p) != 0 }

// Any reports whether any protocol responded.
func (m RespMask) Any() bool { return m != 0 }

// Count returns the number of responsive protocols.
func (m RespMask) Count() int { return bits.OnesCount8(uint8(m)) }

// String renders the mask like "ICMP+TCP/80" ("-" when empty).
func (m RespMask) String() string {
	if m == 0 {
		return "-"
	}
	s := ""
	for _, p := range Protos {
		if m.Has(p) {
			if s != "" {
				s += "+"
			}
			s += p.String()
		}
	}
	return s
}
