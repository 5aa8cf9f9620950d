package atlas

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"
)

// Flat serving-form file format ("INANOFL1"). The design goal is O(1)
// startup: every array in Flat is stored as raw little-endian elements in
// 8-byte-aligned sections, so on a little-endian host an mmap'd file is
// served directly — the slices alias the mapping, nothing is decoded, and
// N daemons on one box share the page cache. Big-endian (or misaligned)
// hosts fall back to an element-wise copy decode of the same bytes.
//
// Layout:
//
//	header (32 B): magic "INANOFL1" | u32 version | u32 reserved
//	               | u64 payload length | u32 crc32(payload) | u32 reserved
//	payload:       u32 day | u32 numClusters | sections...
//	section:       u64 element count | elements, padded to 8 bytes
//
// Sections appear in the order Flat.tables lists, the one list the writer
// and the reader walk. All integers are little-endian.
const flatMagic = "INANOFL1"

// flatVersion 2 dropped version 1's four derivable per-edge sections
// (relationship, From and To AS, To AS degree); version 1 is refused.
const flatVersion = 2

// flatHeaderSize is 8 (magic) + 4 + 4 + 8 + 4 + 4 — a multiple of 8 so
// the payload (and every section in it) stays 8-byte aligned relative to
// the page-aligned mmap base.
const flatHeaderSize = 32

// hostLittleEndian reports whether this machine stores integers
// little-endian — the precondition for serving an mmap'd file zero-copy.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// WriteFlat serializes f in the flat file format.
func WriteFlat(w io.Writer, f *Flat) error {
	payload := writeFlatPayload(f)
	hdr := make([]byte, flatHeaderSize)
	copy(hdr, flatMagic)
	binary.LittleEndian.PutUint32(hdr[8:], flatVersion)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[24:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

type flatWriter struct{ buf []byte }

func (w *flatWriter) u32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

func (w *flatWriter) u64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

func (w *flatWriter) pad() {
	for len(w.buf)%8 != 0 {
		w.buf = append(w.buf, 0)
	}
}

func writeFlatPayload(f *Flat) []byte {
	w := &flatWriter{buf: make([]byte, 0, 64+f.NumEdges()*32)}
	w.u32(uint32(f.Day))
	w.u32(uint32(f.NumClusters))
	for _, t := range f.tables() {
		t.put(w)
	}
	return w.buf
}

// tables lists f's tables in the order an INANOFL1 payload holds them,
// each by its address: the one list writeFlatPayload writes and parseFlat
// reads back into the Flat it is building.
func (f *Flat) tables() []flatTable {
	return []flatTable{
		sectionOf(&f.ClusterAS),
		sectionOf(&f.EdgeStart), sectionOf(&f.EdgeFrom), sectionOf(&f.EdgeLat), sectionOf(&f.EdgeLoss),
		sectionOf(&f.EdgePlanes), sectionOf(&f.EdgeFlags),
		sectionOf(&f.PrefixClKeys), sectionOf(&f.PrefixClVals), sectionOf(&f.PrefixASKeys), sectionOf(&f.PrefixASVals),
		sectionOf(&f.IfaceKeys), sectionOf(&f.IfaceVals),
		sectionOf(&f.AdjustKeys), sectionOf(&f.AdjustGlobal), sectionOf(&f.AdjustLocal),
		sectionOf(&f.Tuples), sectionOf(&f.Prefs), sectionOf(&f.Providers),
		sectionOf(&f.RelKeys), sectionOf(&f.RelVals), sectionOf(&f.LateExit),
		sectionOf(&f.DegKeys), sectionOf(&f.DegVals), sectionOf(&f.LossKeys), sectionOf(&f.LossVals),
	}
}

// fixedWord is the element of a Flat table: one, four or eight bytes,
// stored little-endian.
type fixedWord interface {
	~uint8 | ~int8 | ~uint32 | ~int32 | ~float32 | ~uint64
}

// leBytes returns the little-endian bytes of a table: a byte view of it on
// a little-endian host, a copy on another.
func leBytes[T fixedWord](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
	}
	b, _ := binary.Append(nil, binary.LittleEndian, s) // fixed-size elements: cannot fail
	return b
}

// flatTable is one section of the payload: a table of a Flat, which put
// writes (element count, elements, padding) and get reads back.
type flatTable interface {
	put(w *flatWriter)
	get(r *flatReader)
}

// section is the flatTable of a table of T.
type section[T fixedWord] struct{ p *[]T }

func sectionOf[T fixedWord](p *[]T) flatTable { return section[T]{p} }

func (s section[T]) put(w *flatWriter) {
	w.u64(uint64(len(*s.p)))
	w.buf = append(w.buf, leBytes(*s.p)...)
	w.pad()
}

// get sets the table to the section's elements: with r.alias set, a slice
// over r.data; otherwise a decoded copy. An empty section sets nothing.
func (s section[T]) get(r *flatReader) {
	n := r.u64()
	if n > uint64(len(r.data)) {
		r.fail("section count %d exceeds payload", n)
		return
	}
	b := r.take(int(n) * int(unsafe.Sizeof(*new(T))))
	if r.err != nil || n == 0 {
		return
	}
	if r.alias {
		*s.p = unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
		return
	}
	out := make([]T, n)
	if hostLittleEndian {
		copy(leBytes(out), b)
	} else {
		binary.Decode(b, binary.LittleEndian, out) // b holds exactly n elements: cannot fail
	}
	*s.p = out
}

// flatReader walks the payload. With alias set (little-endian host,
// 8-aligned base), returned slices point into data; otherwise they are
// freshly decoded copies.
type flatReader struct {
	data  []byte
	off   int
	alias bool
	err   error
}

func (r *flatReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("atlas: flat: "+format, args...)
	}
}

func (r *flatReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.data) {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *flatReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

// take returns n payload bytes and advances past them plus padding.
func (r *flatReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.fail("section of %d bytes overruns payload at offset %d", n, r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	for r.off%8 != 0 && r.off < len(r.data) {
		r.off++
	}
	return b
}

// parseFlat decodes a full flat file (header + payload). With alias set,
// slice fields of the result point into data, which must stay mapped and
// immutable for the Flat's lifetime. The result has no search index yet:
// building one trusts the tables Validate checks, so the caller validates
// first and then calls buildIndex.
func parseFlat(data []byte, alias bool) (*Flat, error) {
	if len(data) < flatHeaderSize || string(data[:8]) != flatMagic {
		return nil, fmt.Errorf("atlas: flat: bad magic (not an %s file)", flatMagic)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != flatVersion {
		return nil, fmt.Errorf("atlas: flat: unsupported version %d (want %d)", v, flatVersion)
	}
	plen := binary.LittleEndian.Uint64(data[16:])
	if plen != uint64(len(data)-flatHeaderSize) {
		return nil, fmt.Errorf("atlas: flat: payload length %d does not match file size %d", plen, len(data)-flatHeaderSize)
	}
	payload := data[flatHeaderSize:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[24:]); got != want {
		return nil, fmt.Errorf("atlas: flat: checksum mismatch (file %08x, computed %08x)", want, got)
	}
	if alias && (!hostLittleEndian || uintptr(unsafe.Pointer(&payload[0]))%8 != 0) {
		alias = false // big-endian or misaligned base: decode a copy
	}

	r := &flatReader{data: payload, alias: alias}
	f := &Flat{
		Day:         int32(r.u32()),
		NumClusters: int32(r.u32()),
	}
	for _, t := range f.tables() {
		t.get(r)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("atlas: flat: %d trailing bytes after last section", len(payload)-r.off)
	}
	return f, nil
}

// ReadFlat decodes a flat file from an in-memory byte slice. The result
// never aliases data (safe to discard data afterwards). The structural
// validator runs before returning.
func ReadFlat(data []byte) (*Flat, error) {
	f, err := parseFlat(data, false)
	if err == nil {
		err = f.Validate()
	}
	if err != nil {
		return nil, err
	}
	f.buildIndex()
	return f, nil
}

// FlatFile is a flat atlas backed by a file mapping (or, on platforms
// without mmap, a private copy). The Flat must not be used after Close.
type FlatFile struct {
	*Flat
	close func() error
}

// Close releases the file mapping.
func (ff *FlatFile) Close() error {
	if ff.close == nil {
		return nil
	}
	c := ff.close
	ff.close = nil
	return c()
}

// OpenFlat maps a flat atlas file into memory for zero-copy serving: on a
// little-endian host the returned Flat's arrays alias the shared mapping
// directly, so startup cost is O(1) in atlas size and replicas share
// pages. The checksum is always verified (one sequential pass); with
// validate set, the structural validator runs too — skip it only for
// files produced by a trusted pipeline where open latency matters: the
// caller then vouches for everything Validate checks, the link order of
// every bucket included.
func OpenFlat(path string, validate bool) (*FlatFile, error) {
	data, closer, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	f, err := parseFlat(data, true)
	if err == nil && validate {
		err = f.Validate()
	}
	if err != nil {
		closer()
		return nil, err
	}
	f.buildIndex()
	return &FlatFile{Flat: f, close: closer}, nil
}
