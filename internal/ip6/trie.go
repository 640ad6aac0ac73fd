package ip6

// Trie is a binary radix trie mapping IPv6 prefixes to values of type V.
// It supports exact insertion, longest-prefix-match lookup, and ordered
// walking. The zero value is an empty trie ready to use.
//
// No production code imports the trie: every longest-prefix match — the
// BGP routing table, the aliased-prefix filter, the simulated world's
// resolver — reads an interval table compiled from sorted prefixes
// (CompileIntervals). The trie stays as the independent oracle those
// compiled forms are pinned against in the bgp, apd, netsim and ip6
// tests, with exactly the operations the oracles call.
type Trie[V any] struct {
	root *trieNode[V]
	size int
}

type trieNode[V any] struct {
	child [2]*trieNode[V]
	val   V
	set   bool
}

// Len returns the number of prefixes stored.
func (t *Trie[V]) Len() int { return t.size }

// Insert stores val at the given prefix, replacing any existing value.
func (t *Trie[V]) Insert(p Prefix, val V) {
	if t.root == nil {
		t.root = &trieNode[V]{}
	}
	n := t.root
	for i := 0; i < p.Bits(); i++ {
		b := p.Addr().Bit(i)
		if n.child[b] == nil {
			n.child[b] = &trieNode[V]{}
		}
		n = n.child[b]
	}
	if !n.set {
		t.size++
	}
	n.val = val
	n.set = true
}

// Get returns the value stored at exactly p.
func (t *Trie[V]) Get(p Prefix) (V, bool) {
	n := t.root
	for i := 0; n != nil && i < p.Bits(); i++ {
		n = n.child[p.Addr().Bit(i)]
	}
	if n == nil || !n.set {
		var zero V
		return zero, false
	}
	return n.val, true
}

// Lookup returns the value of the most specific prefix containing a,
// together with that prefix, or ok=false if no stored prefix covers a.
func (t *Trie[V]) Lookup(a Addr) (p Prefix, val V, ok bool) {
	n := t.root
	depth := 0
	bestDepth := -1
	var bestVal V
	for n != nil {
		if n.set {
			bestDepth = depth
			bestVal = n.val
		}
		if depth == 128 {
			break
		}
		n = n.child[a.Bit(depth)]
		depth++
	}
	if bestDepth < 0 {
		var zero V
		return Prefix{}, zero, false
	}
	return PrefixFrom(a, bestDepth), bestVal, true
}

// LookupShortest returns the value of the LEAST specific stored prefix
// containing a — the subscriber-pool resolution of netsim's probeRef
// oracle.
func (t *Trie[V]) LookupShortest(a Addr) (p Prefix, val V, ok bool) {
	n := t.root
	depth := 0
	for n != nil {
		if n.set {
			return PrefixFrom(a, depth), n.val, true
		}
		if depth == 128 {
			break
		}
		n = n.child[a.Bit(depth)]
		depth++
	}
	var zero V
	return Prefix{}, zero, false
}

// Walk visits every stored prefix in address order (depth-first, zero
// branch first), stopping early if fn returns false.
func (t *Trie[V]) Walk(fn func(Prefix, V) bool) {
	var rec func(n *trieNode[V], a Addr, depth int) bool
	rec = func(n *trieNode[V], a Addr, depth int) bool {
		if n == nil {
			return true
		}
		if n.set && !fn(PrefixFrom(a, depth), n.val) {
			return false
		}
		if depth == 128 {
			return true
		}
		if !rec(n.child[0], a, depth+1) {
			return false
		}
		return rec(n.child[1], setBit(a, depth), depth+1)
	}
	rec(t.root, Addr{}, 0)
}

func setBit(a Addr, i int) Addr {
	if i < 64 {
		a.hi |= 1 << (63 - i)
	} else {
		a.lo |= 1 << (127 - i)
	}
	return a
}
