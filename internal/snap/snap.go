// Package snap is the versioned binary snapshot format of the
// persistence plane: a magic/version header followed by tagged,
// length-prefixed, checksummed sections of little-endian column dumps.
// It is deliberately low-level — the package knows how to frame and
// checksum sections and how to encode primitive columns ([]uint64,
// []int32, []uint16, address and prefix columns), while the composition
// into pipeline checkpoints lives in internal/core (checkpoint.go),
// keeping the dependency arrow pointing one way.
//
// # Wire layout
//
//	header   := magic[8] version:u16
//	section  := tag[4] payloadLen:u64 payload[payloadLen] crc64:u64
//	file     := header section* endSection
//
// The end marker is a section with tag "END\x00" and empty payload. All
// integers are little-endian; the checksum is CRC-64/ECMA over the
// payload bytes. Sections are self-describing enough to skip (tag +
// length), so formats can add sections without breaking old readers
// that iterate by tag.
//
// # Versioning policy
//
// Version bumps only on layout changes a reader cannot skip past:
// reordering or re-typing fields inside an existing section. Adding new
// section tags is NOT a version bump — readers ignore unknown tags.
// Readers reject files whose major version byte differs.
//
// # Error model
//
// Decoding never panics on corrupt input: truncation, bad magic, bad
// checksums, and implausible lengths all surface as errors (checked by
// the corruption tests and the fuzz harness). Reads after an error are
// no-ops returning zero values; check Err (or the error returns of
// NewReader/Next) at the boundaries.
package snap

import (
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"

	"expanse/internal/ip6"
)

// Version is the current format version. The low byte is the minor
// version (compatible additions), the high byte the major (breaking).
const Version uint16 = 0x0100

var magic = [8]byte{'E', 'X', 'P', 'S', 'N', 'A', 'P', 0}

// EndTag terminates a snapshot file.
const EndTag = "END\x00"

// maxSection bounds a section payload (and any single decoded slice) so
// a corrupted length cannot ask the decoder to allocate the address
// space. 16 GiB comfortably holds a scale-100 hitlist column dump.
const maxSection = 1 << 34

var (
	// ErrMagic reports a file that does not start with the snapshot magic.
	ErrMagic = errors.New("snap: bad magic")
	// ErrVersion reports a major-version mismatch.
	ErrVersion = errors.New("snap: unsupported version")
	// ErrChecksum reports a section whose payload fails its CRC.
	ErrChecksum = errors.New("snap: section checksum mismatch")
	// ErrCorrupt reports a structurally implausible section or field.
	ErrCorrupt = errors.New("snap: corrupt section")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Writer encodes a snapshot file section by section. Encoding methods
// append to the current section's payload; Section seals the previous
// section (framing + checksum) and starts the next. Errors are sticky:
// the first write error is kept and every later call is a no-op.
type Writer struct {
	w   io.Writer
	tag string
	buf []byte
	err error
}

// NewWriter starts a snapshot on w by emitting the header.
func NewWriter(w io.Writer) *Writer {
	sw := &Writer{w: w}
	var hdr [10]byte
	copy(hdr[:8], magic[:])
	putU16(hdr[8:10], Version)
	_, sw.err = w.Write(hdr[:])
	return sw
}

// Section seals the in-progress section, if any, and opens a new one
// with the given 4-byte tag.
func (w *Writer) Section(tag string) {
	if w.err != nil {
		return
	}
	if len(tag) != 4 {
		w.err = fmt.Errorf("snap: section tag %q is not 4 bytes", tag)
		return
	}
	w.flush()
	w.tag = tag
	w.buf = w.buf[:0]
}

// flush writes the sealed form of the current section.
func (w *Writer) flush() {
	if w.err != nil || w.tag == "" {
		return
	}
	var frame [12]byte
	copy(frame[:4], w.tag)
	putU64(frame[4:12], uint64(len(w.buf)))
	if _, w.err = w.w.Write(frame[:]); w.err != nil {
		return
	}
	if _, w.err = w.w.Write(w.buf); w.err != nil {
		return
	}
	var sum [8]byte
	putU64(sum[:], crc64.Checksum(w.buf, crcTable))
	_, w.err = w.w.Write(sum[:])
	w.tag = ""
}

// Close seals the last section and writes the end marker. The Writer
// must not be used afterwards.
func (w *Writer) Close() error {
	w.Section(EndTag)
	w.flush()
	return w.err
}

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

func (w *Writer) grow(n int) []byte {
	if w.err != nil {
		return nil
	}
	old := len(w.buf)
	if int64(old)+int64(n) > maxSection {
		w.err = fmt.Errorf("snap: section %q exceeds %d bytes", w.tag, int64(maxSection))
		return nil
	}
	w.buf = append(w.buf, make([]byte, n)...)
	return w.buf[old:]
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) {
	if b := w.grow(1); b != nil {
		b[0] = v
	}
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) {
	if b := w.grow(2); b != nil {
		putU16(b, v)
	}
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	if b := w.grow(8); b != nil {
		putU64(b, v)
	}
}

// Int appends an int as a uint64 (values must be non-negative).
func (w *Writer) Int(v int) {
	if v < 0 {
		if w.err == nil {
			w.err = fmt.Errorf("snap: negative Int %d", v)
		}
		return
	}
	w.U64(uint64(v))
}

// F64 appends a float64 by bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	w.U8(b)
}

// U64s appends a length-prefixed []uint64 column.
func (w *Writer) U64s(vs []uint64) {
	w.Int(len(vs))
	b := w.grow(8 * len(vs))
	for i, v := range vs {
		putU64(b[8*i:], v)
	}
}

// U16s appends a length-prefixed []uint16 column.
func (w *Writer) U16s(vs []uint16) {
	w.Int(len(vs))
	b := w.grow(2 * len(vs))
	for i, v := range vs {
		putU16(b[2*i:], v)
	}
}

// I32s appends a length-prefixed []int32 column (two's-complement LE).
func (w *Writer) I32s(vs []int32) {
	w.Int(len(vs))
	b := w.grow(4 * len(vs))
	for i, v := range vs {
		putU32(b[4*i:], uint32(v))
	}
}

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(p []byte) {
	w.Int(len(p))
	copy(w.grow(len(p)), p)
}

// Bits appends a length-prefixed bool column packed 8 per byte.
func (w *Writer) Bits(vs []bool) {
	w.Int(len(vs))
	b := w.grow((len(vs) + 7) / 8)
	for i, v := range vs {
		if v {
			b[i>>3] |= 1 << (i & 7)
		}
	}
}

// AddrCols appends a length-prefixed address column as separate hi and
// lo little-endian u64 dumps — the ShardSet's native columnar layout.
func (w *Writer) AddrCols(addrs []ip6.Addr) {
	w.Int(len(addrs))
	b := w.grow(16 * len(addrs))
	if b == nil {
		return
	}
	n := len(addrs)
	for i, a := range addrs {
		putU64(b[8*i:], a.Hi())
	}
	for i, a := range addrs {
		putU64(b[8*(n+i):], a.Lo())
	}
}

// PrefixCols appends a length-prefixed prefix column: hi dump, lo dump,
// then one length byte per prefix.
func (w *Writer) PrefixCols(ps []ip6.Prefix) {
	w.Int(len(ps))
	n := len(ps)
	b := w.grow(17 * n)
	if b == nil {
		return
	}
	for i, p := range ps {
		putU64(b[8*i:], p.Addr().Hi())
	}
	for i, p := range ps {
		putU64(b[8*(n+i):], p.Addr().Lo())
	}
	for i, p := range ps {
		b[16*n+i] = uint8(p.Bits())
	}
}

// Reader decodes a snapshot file. Next loads and verifies one section
// at a time; the field methods then consume the section payload in
// order. Errors are sticky and reads after an error return zero values.
type Reader struct {
	r   io.Reader
	buf []byte
	pos int
	err error
}

// NewReader checks the header and positions the reader before the first
// section.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [10]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMagic, err)
	}
	for i := range magic {
		if hdr[i] != magic[i] {
			return nil, ErrMagic
		}
	}
	v := getU16(hdr[8:10])
	if v>>8 != Version>>8 {
		return nil, fmt.Errorf("%w: file 0x%04x, reader 0x%04x", ErrVersion, v, Version)
	}
	return &Reader{r: r}, nil
}

// Next reads the next section into memory, verifies its checksum, and
// returns its tag. It returns io.EOF (as the error, tag EndTag) at the
// end marker. Unread bytes of the previous section are discarded, which
// is what lets readers skip unknown tags.
func (r *Reader) Next() (string, error) {
	if r.err != nil {
		return "", r.err
	}
	var frame [12]byte
	if _, err := io.ReadFull(r.r, frame[:]); err != nil {
		r.err = fmt.Errorf("%w: truncated section frame: %v", ErrCorrupt, err)
		return "", r.err
	}
	tag := string(frame[:4])
	n := getU64(frame[4:12])
	if n > maxSection {
		r.err = fmt.Errorf("%w: section %q claims %d bytes", ErrCorrupt, tag, n)
		return "", r.err
	}
	if uint64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	r.pos = 0
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		r.err = fmt.Errorf("%w: truncated section %q: %v", ErrCorrupt, tag, err)
		return "", r.err
	}
	var sum [8]byte
	if _, err := io.ReadFull(r.r, sum[:]); err != nil {
		r.err = fmt.Errorf("%w: truncated checksum of %q: %v", ErrCorrupt, tag, err)
		return "", r.err
	}
	if getU64(sum[:]) != crc64.Checksum(r.buf, crcTable) {
		r.err = fmt.Errorf("%w: section %q", ErrChecksum, tag)
		return "", r.err
	}
	if tag == EndTag {
		return tag, io.EOF
	}
	return tag, nil
}

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

// Remaining returns the unread byte count of the current section.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.pos+n > len(r.buf) {
		r.err = fmt.Errorf("%w: field overruns section (%d bytes needed, %d left)",
			ErrCorrupt, n, len(r.buf)-r.pos)
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// length reads a length prefix and validates it against the bytes the
// section can still provide at the given element width.
func (r *Reader) length(elemBytes int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if elemBytes > 0 && n > uint64(r.Remaining()/elemBytes) {
		r.err = fmt.Errorf("%w: length %d exceeds section payload", ErrCorrupt, n)
		return 0
	}
	return int(n)
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.take(2); b != nil {
		return getU16(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return getU64(b)
	}
	return 0
}

// Int reads a uint64 and validates it fits an int.
func (r *Reader) Int() int {
	v := r.U64()
	if r.err == nil && v > math.MaxInt64/2 {
		r.err = fmt.Errorf("%w: implausible integer %d", ErrCorrupt, v)
		return 0
	}
	return int(v)
}

// F64 reads a float64 by bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte as a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U64s reads a length-prefixed []uint64 column.
func (r *Reader) U64s() []uint64 {
	n := r.length(8)
	b := r.take(8 * n)
	if b == nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = getU64(b[8*i:])
	}
	return out
}

// U16s reads a length-prefixed []uint16 column.
func (r *Reader) U16s() []uint16 {
	n := r.length(2)
	b := r.take(2 * n)
	if b == nil {
		return nil
	}
	out := make([]uint16, n)
	for i := range out {
		out[i] = getU16(b[2*i:])
	}
	return out
}

// I32s reads a length-prefixed []int32 column.
func (r *Reader) I32s() []int32 {
	n := r.length(4)
	b := r.take(4 * n)
	if b == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(getU32(b[4*i:]))
	}
	return out
}

// Bytes reads a length-prefixed byte string.
func (r *Reader) Bytes() []byte {
	n := r.length(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Bits reads a length-prefixed packed bool column.
func (r *Reader) Bits() []bool {
	n := r.length(0)
	if r.err == nil && (n+7)/8 > r.Remaining() {
		r.err = fmt.Errorf("%w: bit column length %d exceeds section payload", ErrCorrupt, n)
		return nil
	}
	b := r.take((n + 7) / 8)
	if b == nil {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = b[i>>3]&(1<<(i&7)) != 0
	}
	return out
}

// AddrCols reads a length-prefixed address column.
func (r *Reader) AddrCols() []ip6.Addr {
	n := r.length(16)
	b := r.take(16 * n)
	if b == nil {
		return nil
	}
	out := make([]ip6.Addr, n)
	for i := range out {
		out[i] = ip6.AddrFromUint64(getU64(b[8*i:]), getU64(b[8*(n+i):]))
	}
	return out
}

// PrefixCols reads a length-prefixed prefix column.
func (r *Reader) PrefixCols() []ip6.Prefix {
	n := r.length(17)
	b := r.take(17 * n)
	if b == nil {
		return nil
	}
	out := make([]ip6.Prefix, n)
	for i := range out {
		a := ip6.AddrFromUint64(getU64(b[8*i:]), getU64(b[8*(n+i):]))
		out[i] = ip6.PrefixFrom(a, int(b[16*n+i]))
	}
	return out
}

func putU16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

func getU16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}
