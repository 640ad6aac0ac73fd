package wire

import (
	"math/bits"

	"expanse/internal/ip6"
)

// This file defines the columnar result vocabulary of the scan plane: the
// structure-of-arrays form of probe responses. Where a Response is one
// struct plus a heap TCPInfo per probe, a ResultColumns run is an OK
// bitset, a hop-limit byte column, a fingerprint value column and a
// timestamp column: the shape the batched prober writes and the mask
// folds, fingerprint analyses and APD branch merges read without
// rematerializing per-probe structs.

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

// ResultColumns is the structure-of-arrays form of one scan's results:
// column i describes the probe of target i. Which columns exist is fixed
// at Reset time — mask-only consumers (the daily sweep, APD) carry just
// the OK bitset, fingerprint consumers carry all columns. Writers must
// check for nil columns; readers consult only columns they requested.
type ResultColumns struct {
	// OK has bit i set iff target i answered.
	OK Bitset
	// HopLimit[i] is the received hop limit (0 when !OK).
	HopLimit []uint8
	// TCP[i] is the SYN-ACK fingerprint (the zero value if none).
	TCP []TCPFingerprint
	// TSVal[i] is the TCP timestamp value (valid iff TCP[i].TSPresent).
	TSVal []uint32
	// SentAt[i] is the virtual send time of the probe.
	SentAt []Time
}

// Reset sizes all columns for n targets and clears them, reusing backing
// arrays across scans.
func (c *ResultColumns) Reset(n int) {
	c.OK.Reset(n)
	c.HopLimit = resetSlice(c.HopLimit, n)
	c.TCP = resetSlice(c.TCP, n)
	c.TSVal = resetSlice(c.TSVal, n)
	c.SentAt = resetSlice(c.SentAt, n)
}

// ResetOK sizes the columns for mask-only use: just the OK bitset, the
// form the five-protocol responsiveness sweep and APD probing consume.
func (c *ResultColumns) ResetOK(n int) {
	c.OK.Reset(n)
	c.HopLimit = nil
	c.TCP = nil
	c.TSVal = nil
	c.SentAt = nil
}

func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
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
