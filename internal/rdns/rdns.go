// Package rdns implements reverse-DNS tree walking (§8): a depth-first
// enumeration of the ip6.arpa tree that relies on NXDOMAIN semantics to
// prune empty subtrees, the technique of Fiebig et al. that the paper
// evaluates as an additional hitlist source.
package rdns

import (
	"expanse/internal/dnssim"
	"expanse/internal/ip6"
)

// Result summarizes one walk.
type Result struct {
	// Addrs are the addresses with PTR records, in discovery order.
	Addrs []ip6.Addr
	// Queries is the number of DNS queries issued — the "strain on
	// important Internet infrastructure" that makes this source
	// semi-public (§8).
	Queries int
}

// Walk enumerates the whole tree.
func Walk(t *dnssim.RTree) Result {
	return WalkUnder(t, nil)
}

// WalkUnder enumerates the subtree beneath the given nybble path prefix
// (MSB-first). A nil prefix walks from the root. The walk counts its own
// queries, so any number of walks may share one zone.
func WalkUnder(t *dnssim.RTree, prefix []byte) Result {
	var res Result
	path := make([]byte, len(prefix), 32)
	copy(path, prefix)
	// Confirm the starting point exists (as a real walker would).
	switch query(t, path, &res) {
	case dnssim.NXDomain:
		// Nothing under the starting point.
	case dnssim.HasPTR:
		res.Addrs = append(res.Addrs, addrFromNybbles(path))
	default:
		walk(t, path, &res)
	}
	return res
}

func walk(t *dnssim.RTree, path []byte, res *Result) {
	for d := byte(0); d < 16; d++ {
		child := append(path, d)
		switch query(t, child, res) {
		case dnssim.NXDomain:
			// Prune: nothing anywhere below this label.
		case dnssim.HasPTR:
			res.Addrs = append(res.Addrs, addrFromNybbles(child))
		case dnssim.NoErrorEmpty:
			walk(t, child, res)
		}
	}
}

// query issues one DNS query, counting it into res.Queries.
func query(t *dnssim.RTree, path []byte, res *Result) dnssim.RCode {
	res.Queries++
	return t.Query(path)
}

func addrFromNybbles(path []byte) ip6.Addr {
	var n [32]byte
	copy(n[:], path)
	return ip6.AddrFromNybbles(n)
}
