package wire

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"expanse/internal/ip6"
)

// This file defines the columnar result vocabulary of the scan plane: the
// structure-of-arrays form of probe responses. Where Response is one
// 24-byte struct plus a heap TCPInfo per probe, a ResultColumns run is an
// OK bitset, a hop-limit byte column, and an interned-fingerprint index
// column — the shape the batched prober writes and the mask folds,
// fingerprint analyses and APD branch merges read without rematerializing
// per-probe structs.

// Bitset is a packed bit vector. Concurrent writers must not share 64-bit
// words; the scan engine guarantees this by aligning worker shards to
// 64-index boundaries.
type Bitset []uint64

// NewBitset returns a zeroed bitset covering n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Reset re-zeroes the bitset for n bits, reusing the backing array when
// large enough.
func (b *Bitset) Reset(n int) {
	words := (n + 63) / 64
	if cap(*b) < words {
		*b = make(Bitset, words)
		return
	}
	*b = (*b)[:words]
	for i := range *b {
		(*b)[i] = 0
	}
}

// Set sets bit i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (i & 63) }

// Get reports bit i; bits beyond the bitset read as unset (a history day
// column answers for IDs registered after it was recorded).
func (b Bitset) Get(i int) bool { return i>>6 < len(b) && b[i>>6]>>(i&63)&1 != 0 }

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Extract16 returns the 16 bits starting at bit offset off (bits beyond
// the bitset read as zero). APD folds fan-out responses into BranchMasks
// with it: one candidate's 16 branch bits in at most two word reads.
func (b Bitset) Extract16(off int) uint16 {
	w, sh := off>>6, uint(off&63)
	var v uint64
	if w < len(b) {
		v = b[w] >> sh
	}
	if sh > 48 && w+1 < len(b) {
		v |= b[w+1] << (64 - sh)
	}
	return uint16(v)
}

// TCPFingerprint is the per-machine static part of a SYN-ACK: everything
// in TCPInfo except the timestamp value, which advances per probe.
// Machine profiles are heavily cloned across addresses (one physical host
// answers for whole aliased regions), so distinct fingerprints number in
// the dozens — the reason interning them pays.
type TCPFingerprint struct {
	OptionsText string
	MSS         uint16
	WScale      uint8
	WSize       uint16
	TSPresent   bool
}

// TCPRef indexes an interned TCPFingerprint in a TCPTable. NoTCP marks
// probes without a usable SYN-ACK.
type TCPRef int32

// NoTCP is the null TCPRef.
const NoTCP TCPRef = -1

// TCPTable interns TCP fingerprints: an append-only value⇄id table safe
// for unlimited concurrent Intern/Fingerprint calls. Two refs are equal
// iff their fingerprints are field-for-field equal, which turns the §5.4
// consistency tests' string comparisons into integer compares.
//
// Ref numbering follows first-intern order, which depends on goroutine
// scheduling — refs are stable identities within one table, not
// deterministic values. Consumers compare refs or resolve them back to
// fingerprints; they must never rank or print raw ref numbers.
type TCPTable struct {
	mu   sync.Mutex
	byFP sync.Map // TCPFingerprint → TCPRef, the lock-free hit path
	fps  atomic.Pointer[[]TCPFingerprint]
}

// Intern returns the ref for fp, assigning the next id on first sight.
func (t *TCPTable) Intern(fp TCPFingerprint) TCPRef {
	if v, ok := t.byFP.Load(fp); ok {
		return v.(TCPRef)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.byFP.Load(fp); ok {
		return v.(TCPRef)
	}
	var next []TCPFingerprint
	if cur := t.fps.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, fp)
	ref := TCPRef(len(next) - 1)
	t.fps.Store(&next)
	t.byFP.Store(fp, ref)
	return ref
}

// Fingerprint resolves a ref back to its interned fingerprint.
func (t *TCPTable) Fingerprint(ref TCPRef) TCPFingerprint {
	return (*t.fps.Load())[ref]
}

// Len returns the number of interned fingerprints.
func (t *TCPTable) Len() int {
	cur := t.fps.Load()
	if cur == nil {
		return 0
	}
	return len(*cur)
}

// ResultColumns is the structure-of-arrays form of one scan's results:
// column i describes the probe of target i. Which columns exist is fixed
// at Reset time — mask-only consumers (the daily sweep, APD) carry just
// the OK bitset, fingerprint consumers carry all columns. Writers must
// check for nil columns; readers consult only columns they requested.
type ResultColumns struct {
	// Table interns TCP fingerprints for the TCPRef column; nil in
	// mask-only mode.
	Table *TCPTable
	// OK has bit i set iff target i answered.
	OK Bitset
	// HopLimit[i] is the received hop limit (0 when !OK).
	HopLimit []uint8
	// TCPRef[i] indexes the interned SYN-ACK fingerprint (NoTCP if none).
	TCPRef []TCPRef
	// TSVal[i] is the TCP timestamp value (valid iff TCPRef[i] != NoTCP
	// and the fingerprint has TSPresent).
	TSVal []uint32
	// SentAt[i] is the virtual send time of the last probe attempt.
	SentAt []Time
}

// Reset sizes all columns for n targets and clears them, reusing backing
// arrays across scans. table provides fingerprint interning.
func (c *ResultColumns) Reset(n int, table *TCPTable) {
	c.ResetOK(n)
	c.Table = table
	c.HopLimit = resetSlice(c.HopLimit, n)
	c.TSVal = resetSlice(c.TSVal, n)
	c.SentAt = resetSlice(c.SentAt, n)
	c.TCPRef = c.TCPRef[:0]
	if cap(c.TCPRef) < n {
		c.TCPRef = make([]TCPRef, n)
	} else {
		c.TCPRef = c.TCPRef[:n]
	}
	for i := range c.TCPRef {
		c.TCPRef[i] = NoTCP
	}
}

// ResetOK sizes the columns for mask-only use: just the OK bitset, the
// form the five-protocol responsiveness sweep and APD probing consume.
func (c *ResultColumns) ResetOK(n int) {
	c.OK.Reset(n)
	c.Table = nil
	c.HopLimit = nil
	c.TCPRef = nil
	c.TSVal = nil
	c.SentAt = nil
}

func resetSlice[T uint8 | uint32 | Time](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// TCPInfoAt materializes column i back into a TCPInfo (nil if the probe
// carried no SYN-ACK). It exists for tests; hot consumers read the
// columns directly.
func (c *ResultColumns) TCPInfoAt(i int) *TCPInfo {
	if c.TCPRef == nil || c.TCPRef[i] == NoTCP {
		return nil
	}
	fp := c.Table.Fingerprint(c.TCPRef[i])
	return &TCPInfo{
		OptionsText: fp.OptionsText,
		MSS:         fp.MSS,
		WScale:      fp.WScale,
		WSize:       fp.WSize,
		TSPresent:   fp.TSPresent,
		TSVal:       c.TSVal[i],
	}
}

// Lane is one line of a multi-lane probe batch: a protocol, the send
// time of every destination on it, and the columns its answers go to.
// A batch of lanes shares its destinations — the five protocols of the
// daily sweep, APD's two, the two time lines of a fingerprint pair — so
// a responder finds who owns a destination once and lets that owner
// answer every lane.
type Lane struct {
	Proto Proto
	// At[k] is the send time of the probe to destination k on this lane.
	At []Time
	// Out receives the lane's answers; lanes of one batch never share it.
	Out *ResultColumns
}

// Responder answers whole probe batches into result columns: the
// contract between the scan engine and the simulated Internet, which
// implements it (tests substitute fakes). It amortizes destination
// resolution twice over: sorted target runs stay inside one aliased
// region or subscriber network, so consecutive destinations reuse one
// lookup result, and every lane of a destination is answered from the
// one owner found for it.
//
// ProbeLanes(dsts, day, lanes, base) answers the probe of destination k
// on lane l — protocol l.Proto, sent at virtual time l.At[k] of the day —
// into l.Out column base+k. An answer must depend only on its
// destination, protocol, day and send time, never on the batch it comes
// in or on other calls: the scan engine's results are then identical at
// any worker count and batch split. Callers must ensure concurrent
// ProbeLanes calls on one Out never share OK bitset words (the scan
// engine aligns shard boundaries to 64 indices).
type Responder interface {
	ProbeLanes(dsts []ip6.Addr, day int, lanes []Lane, base int)
}
