package dnssim

import (
	"fmt"

	"expanse/internal/ip6"
	"expanse/internal/netsim"
)

// refNames renders every domain's name as New formatted it before the
// zone became key columns, in row order: the hosts that carry a domain,
// then alias records, stale records and domain-hosting lines.
func refNames(world *netsim.Internet) []string {
	var out []string
	for _, h := range world.Hosts() {
		if h.Domain != 0 {
			out = append(out, fmt.Sprintf("host%d.as%d.example.", h.Domain, h.ASN))
		}
	}
	for _, r := range world.AliasRecords() {
		out = append(out, fmt.Sprintf("cust%d.cdn%d.example.", r.Domain, r.ASN))
	}
	for _, r := range world.StaleRecords() {
		out = append(out, fmt.Sprintf("old%d.as%d.example.", r.Domain, r.ASN))
	}
	for _, lh := range world.LineHosts() {
		out = append(out, fmt.Sprintf("nas-%d.as%d.dyn-example.", lh.Line, lh.ASN))
	}
	return out
}

// refTrie is the retired pointer-trie reverse zone, kept as the oracle
// the sorted column is held to (FuzzRTreeQuery, TestWalkMatchesTrie): a
// nybble trie addressed MSB-first, one 16-way node per label.
type refTrie struct {
	root    *refNode
	queries int
}

type refNode struct {
	children [16]*refNode
	ptr      bool
}

func newRefTrie(addrs []ip6.Addr) *refTrie {
	t := &refTrie{root: &refNode{}}
	for _, a := range addrs {
		n := t.root
		nyb := a.Nybbles()
		for i := 0; i < 32; i++ {
			d := nyb[i]
			if n.children[d] == nil {
				n.children[d] = &refNode{}
			}
			n = n.children[d]
		}
		n.ptr = true
	}
	return t
}

// Query is the trie walk the sorted column replaced; every call counts
// one DNS query, as the trie's own counter did.
func (t *refTrie) Query(path []byte) RCode {
	t.queries++
	n := t.root
	for _, d := range path {
		if d > 15 {
			return NXDomain
		}
		n = n.children[d]
		if n == nil {
			return NXDomain
		}
	}
	if len(path) == 32 {
		if n.ptr {
			return HasPTR
		}
		return NXDomain
	}
	return NoErrorEmpty
}

// refWalk is the depth-first ip6.arpa walk (rdns.Walk) over the trie
// oracle, as the walker ran before the zone became a sorted column: the
// addresses in discovery order and the trie's query count, the root
// check included.
func refWalk(addrs []ip6.Addr) ([]ip6.Addr, int) {
	t := newRefTrie(addrs)
	var found []ip6.Addr
	var walk func(path []byte)
	walk = func(path []byte) {
		for d := byte(0); d < 16; d++ {
			child := append(path, d)
			switch t.Query(child) {
			case HasPTR:
				var n [32]byte
				copy(n[:], child)
				found = append(found, ip6.AddrFromNybbles(n))
			case NoErrorEmpty:
				walk(child)
			}
		}
	}
	if t.Query(nil) != NXDomain {
		walk(make([]byte, 0, 32))
	}
	return found, t.queries
}
