package atlas

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"inano/internal/cluster"
	"inano/internal/netsim"
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
// Sections appear in a fixed order (see writeFlatPayload / parseFlat,
// which must stay in lockstep). All integers are little-endian.
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

func sec32[T ~uint32 | ~int32](w *flatWriter, s []T) {
	w.u64(uint64(len(s)))
	for _, v := range s {
		w.u32(uint32(v))
	}
	w.pad()
}

func secF32(w *flatWriter, s []float32) {
	w.u64(uint64(len(s)))
	for _, v := range s {
		w.u32(math.Float32bits(v))
	}
	w.pad()
}

func sec64(w *flatWriter, s []uint64) {
	w.u64(uint64(len(s)))
	for _, v := range s {
		w.u64(v)
	}
	w.pad()
}

func sec8[T ~uint8 | ~int8](w *flatWriter, s []T) {
	w.u64(uint64(len(s)))
	for _, v := range s {
		w.buf = append(w.buf, byte(v))
	}
	w.pad()
}

func writeFlatPayload(f *Flat) []byte {
	w := &flatWriter{buf: make([]byte, 0, 64+f.NumEdges()*32)}
	w.u32(uint32(f.Day))
	w.u32(uint32(f.NumClusters))
	sec32(w, f.ClusterAS)
	sec32(w, f.EdgeStart)
	sec32(w, f.EdgeFrom)
	secF32(w, f.EdgeLat)
	secF32(w, f.EdgeLoss)
	sec8(w, f.EdgePlanes)
	sec8(w, f.EdgeFlags)
	sec32(w, f.PrefixClKeys)
	sec32(w, f.PrefixClVals)
	sec32(w, f.PrefixASKeys)
	sec32(w, f.PrefixASVals)
	sec32(w, f.IfaceKeys)
	sec32(w, f.IfaceVals)
	sec32(w, f.AdjustKeys)
	secF32(w, f.AdjustGlobal)
	secF32(w, f.AdjustLocal)
	sec64(w, f.Tuples)
	sec64(w, f.Prefs)
	sec64(w, f.Providers)
	sec64(w, f.RelKeys)
	sec8(w, f.RelVals)
	sec64(w, f.LateExit)
	sec32(w, f.DegKeys)
	sec32(w, f.DegVals)
	sec64(w, f.LossKeys)
	secF32(w, f.LossVals)
	return w.buf
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

// castSlice reinterprets a slice as a same-element-size type (e.g.
// []uint32 -> []netsim.ASN). Caller guarantees the sizes match.
func castSlice[Dst, Src any](s []Src) []Dst {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*Dst)(unsafe.Pointer(&s[0])), len(s))
}

func rdSec32[T ~uint32 | ~int32 | ~float32](r *flatReader) []T {
	n := r.u64()
	if n > uint64(len(r.data)) {
		r.fail("section count %d exceeds payload", n)
		return nil
	}
	b := r.take(int(n) * 4)
	if r.err != nil || n == 0 {
		return nil
	}
	if r.alias {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	raw := castSlice[uint32](out)
	for i := range raw {
		raw[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

func rdSec64(r *flatReader) []uint64 {
	n := r.u64()
	if n > uint64(len(r.data)) {
		r.fail("section count %d exceeds payload", n)
		return nil
	}
	b := r.take(int(n) * 8)
	if r.err != nil || n == 0 {
		return nil
	}
	if r.alias {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func rdSec8[T ~uint8 | ~int8](r *flatReader) []T {
	n := r.u64()
	if n > uint64(len(r.data)) {
		r.fail("section count %d exceeds payload", n)
		return nil
	}
	b := r.take(int(n))
	if r.err != nil || n == 0 {
		return nil
	}
	if r.alias {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(b[i])
	}
	return out
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
	f.ClusterAS = rdSec32[netsim.ASN](r)
	f.EdgeStart = rdSec32[uint32](r)
	f.EdgeFrom = rdSec32[cluster.ClusterID](r)
	f.EdgeLat = rdSec32[float32](r)
	f.EdgeLoss = rdSec32[float32](r)
	f.EdgePlanes = rdSec8[uint8](r)
	f.EdgeFlags = rdSec8[uint8](r)
	f.PrefixClKeys = rdSec32[netsim.Prefix](r)
	f.PrefixClVals = rdSec32[cluster.ClusterID](r)
	f.PrefixASKeys = rdSec32[netsim.Prefix](r)
	f.PrefixASVals = rdSec32[netsim.ASN](r)
	f.IfaceKeys = rdSec32[netsim.Prefix](r)
	f.IfaceVals = rdSec32[cluster.ClusterID](r)
	f.AdjustKeys = rdSec32[netsim.Prefix](r)
	f.AdjustGlobal = rdSec32[float32](r)
	f.AdjustLocal = rdSec32[float32](r)
	f.Tuples = rdSec64(r)
	f.Prefs = rdSec64(r)
	f.Providers = rdSec64(r)
	f.RelKeys = rdSec64(r)
	f.RelVals = rdSec8[netsim.Rel](r)
	f.LateExit = rdSec64(r)
	f.DegKeys = rdSec32[netsim.ASN](r)
	f.DegVals = rdSec32[int32](r)
	f.LossKeys = rdSec64(r)
	f.LossVals = rdSec32[float32](r)
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
