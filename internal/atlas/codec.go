package atlas

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// The wire format is a gzip stream over: magic, version, day, cluster count,
// then one section per dataset. Sections carry sorted, delta-encoded varint
// records; latencies quantize to 0.01 ms and loss rates to 0.01%, matching
// the paper's "pocket-sized" representation goals.
const (
	atlasMagic = "INANOATL"
	// atlasVersion 2 added the aggregated-corrections dataset
	// (GlobalAdjustMS) to both the atlas and the delta streams.
	// atlasVersion 3 added the crowd-observed structure fold: the
	// observed-link and observed-attachment TTL sections in the atlas
	// stream, and cluster growth + prefix-attachment updates in the delta
	// stream, so structure learned from uploaded traceroute hops ships to
	// delta-following clients.
	atlasVersion = 3

	// maxDecodedBytes caps how far Decode will inflate a stream. Real
	// atlases decompress to tens of megabytes; the cap only exists so a
	// corrupt or hostile stream (a gzip bomb) fails with an error instead
	// of exhausting memory.
	maxDecodedBytes = 64 << 20
	// maxSectionRecords bounds any one section's declared record count —
	// orders of magnitude above a real atlas (the paper's full atlas holds
	// low millions of entries), but small enough that a lying count is
	// rejected before the decoder does any work on it.
	maxSectionRecords = 1 << 22
)

// Section identifiers (also the keys of SectionSizes).
const (
	secClusterAS = iota
	secLinks
	secLoss
	secPrefixCluster
	secPrefixAS
	secASDegree
	secTuples
	secPrefs
	secProviders
	secRels
	secLateExit
	secGlobalAdjust
	secObservedLink
	secObservedAttach
	secIfaceCluster
	numSections
)

// SectionName returns the human-readable dataset name used in Table 2.
func SectionName(sec int) string {
	switch sec {
	case secClusterAS:
		return "Cluster to AS"
	case secLinks:
		return "Inter-cluster links with latencies"
	case secLoss:
		return "Link loss rates"
	case secPrefixCluster:
		return "Prefix to cluster"
	case secPrefixAS:
		return "Prefix to AS"
	case secASDegree:
		return "AS degrees"
	case secTuples:
		return "AS three-tuples"
	case secPrefs:
		return "AS preferences"
	case secProviders:
		return "Provider mappings"
	case secRels:
		return "AS relationships"
	case secLateExit:
		return "Late-exit pairs"
	case secGlobalAdjust:
		return "Aggregated corrections"
	case secObservedLink:
		return "Observed-link lifetimes"
	case secObservedAttach:
		return "Observed-attachment lifetimes"
	case secIfaceCluster:
		return "Interface prefix to cluster"
	default:
		return fmt.Sprintf("section %d", sec)
	}
}

type sectionWriter struct {
	buf bytes.Buffer
}

func (w *sectionWriter) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	w.buf.Write(tmp[:n])
}

// wireWindow is how much of an inflating stream a wireReader holds at once;
// larger windows measured no faster.
const wireWindow = 4 << 10

// wireReader is the one parser of both wire streams: it inflates through a
// window of its own and reads every varint out of that window with
// binary.Uvarint, so a record costs no call through an interface and a
// stream of any size costs wireWindow bytes. It remembers its first failure
// — a read that ran off the stream, or a fail from a section reader that
// did not like what it read — and every read after that returns zero, so
// callers check err once a section; their loops stop on it.
type wireReader struct {
	gz       *gzip.Reader
	src      io.LimitedReader // gz, capped one byte past maxDecodedBytes
	buf      []byte
	off, end int
	srcErr   error // what src last returned, io.EOF included
	err      error
	// strict makes readTable reject keys that do not ascend. An atlas is
	// read strictly; a delta's lists come as they are (Flat.Apply sorts).
	strict bool
}

// openWire starts reading a stream that begins with magic and atlasVersion.
// what names the stream in errors.
func openWire(in io.Reader, magic, what string) (*wireReader, error) {
	gz, err := gzip.NewReader(in)
	if err != nil {
		return nil, fmt.Errorf("atlas: not a compressed %s: %w", what, err)
	}
	// One byte of headroom so a stream of exactly maxDecodedBytes is not
	// misreported as over-limit: src.N reaches zero only past the cap.
	r := &wireReader{gz: gz, src: io.LimitedReader{R: gz, N: maxDecodedBytes + 1}, buf: make([]byte, wireWindow)}
	r.fill()
	switch {
	case r.end < len(magic):
		r.readFailed(0)
		r.err = fmt.Errorf("truncated header: %w", r.err)
	case string(r.buf[:len(magic)]) != magic:
		r.fail("bad magic %q", r.buf[:len(magic)])
	default:
		r.off = len(magic)
		if ver := r.uvarint(); r.err != nil {
			r.err = fmt.Errorf("truncated version: %w", r.err)
		} else if ver != atlasVersion {
			r.fail("unsupported version %d", ver)
		}
	}
	if r.err != nil {
		return nil, r.close(what)
	}
	return r, nil
}

// fill moves the unread bytes to the front of the window and reads src
// until the window is full or src has nothing more to give.
func (r *wireReader) fill() {
	r.end = copy(r.buf, r.buf[r.off:r.end])
	r.off = 0
	for r.end < len(r.buf) && r.srcErr == nil {
		var n int
		n, r.srcErr = r.src.Read(r.buf[r.end:])
		r.end += n
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.end-r.off < binary.MaxVarintLen64 && r.srcErr == nil {
		r.fill()
	}
	v, n := binary.Uvarint(r.buf[r.off:r.end])
	if n <= 0 || r.err != nil {
		r.readFailed(n)
		return 0
	}
	r.off += n
	return v
}

// readFailed records why a read got no value: n is binary.Uvarint's.
func (r *wireReader) readFailed(n int) {
	switch {
	case r.err != nil:
	case n < 0:
		r.fail("varint overflows 64 bits")
	case r.srcErr != nil && r.srcErr != io.EOF:
		r.err = r.srcErr
	case r.src.N == 0:
		r.fail("stream exceeds %d-byte decode limit", int64(maxDecodedBytes))
	default:
		r.err = io.ErrUnexpectedEOF
	}
}

// fail records a failure, unless an earlier one stands.
func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// count reads a record count and rejects implausible values.
func (r *wireReader) count() uint64 { return r.plausible(r.uvarint()) }

// plausible returns the record count n, or fails and returns none.
func (r *wireReader) plausible(n uint64) uint64 {
	if n > maxSectionRecords {
		r.fail("record count %d exceeds limit %d", n, int64(maxSectionRecords))
		return 0
	}
	return n
}

// close ends the read. A stream that parsed is drained to its end first,
// so the gzip checksum is verified and a truncated trailer, trailing bytes
// and a stream past the decode limit are caught. It returns the reader's
// failure, if any, as the error of decoding a what.
func (r *wireReader) close(what string) error {
	if r.err == nil {
		n := int64(r.end - r.off)
		if r.srcErr == nil {
			var m int64
			m, r.srcErr = io.Copy(io.Discard, &r.src)
			n += m
		}
		switch {
		case r.srcErr != nil && r.srcErr != io.EOF:
			r.err = fmt.Errorf("corrupt stream trailer: %w", r.srcErr)
		case r.src.N == 0:
			r.fail("stream exceeds %d-byte decode limit", int64(maxDecodedBytes))
		case n != 0:
			r.fail("%d bytes of trailing garbage", n)
		}
	}
	r.gz.Close() //nolint:errcheck // a read's failures are in r.err already
	if r.err != nil {
		return fmt.Errorf("atlas: decoding %s: %w", what, r.err)
	}
	return nil
}

// allocHint bounds slice preallocation from an untrusted record count. A
// corrupted stream can claim billions of records; since every record costs
// at least one stream byte, lying counts hit EOF quickly — but only if we
// grow with append instead of allocating the claimed size up front.
func allocHint(n uint64) int {
	const maxHint = 1 << 16
	if n > maxHint {
		return maxHint
	}
	return int(n)
}

// readTable reads a keyed section as what the stream already holds, sorted
// parallel key and value slices: a record count, then per record the key as
// its difference from the one before and one varint that val turns into
// the value. A nil val reads a set — keys and nothing else — and returns no
// values. On a strict reader the keys must ascend strictly as stored,
// narrowed to K: Encode writes nothing else, and it is what lets the serving
// form adopt the slices without a sort, a hash or a second look. Otherwise
// the keys are kept as they come, repeats and all.
func readTable[K ~uint32 | ~uint64, V any](r *wireReader, val func(K, uint64) V) ([]K, []V) {
	n := r.count()
	keys := make([]K, 0, allocHint(n))
	var vals []V
	if val != nil {
		vals = make([]V, 0, allocHint(n))
	}
	var at uint64
	for i := uint64(0); i < n && r.err == nil; i++ {
		at += r.uvarint()
		k := K(at)
		if r.strict && i > 0 && k <= keys[i-1] {
			r.fail("key %d after key %d: keys must ascend strictly", k, keys[i-1])
		}
		keys = append(keys, k)
		if val != nil {
			vals = append(vals, val(k, r.uvarint()))
		}
	}
	return keys, vals
}

// plain is a readTable value that needs no look at its key and cannot be
// wrong: the varint through conv.
func plain[K, V any](conv func(uint64) V) func(K, uint64) V {
	return func(_ K, u uint64) V { return conv(u) }
}

// readASNs reads a count and that many AS numbers.
func readASNs(r *wireReader) []netsim.ASN {
	n := r.count()
	out := make([]netsim.ASN, 0, allocHint(n))
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, netsim.ASN(r.uvarint()))
	}
	return out
}

// readLinks reads the link records of either stream, in stream order: From
// as its difference from the record before, To, latency and planes.
func readLinks(r *wireReader) []Link {
	n := r.count()
	links := make([]Link, 0, allocHint(n))
	var from uint64
	for i := uint64(0); i < n && r.err == nil; i++ {
		from += r.uvarint()
		links = append(links, Link{
			From:      cluster.ClusterID(uint32(from)),
			To:        cluster.ClusterID(uint32(r.uvarint())),
			LatencyMS: unquantLat(r.uvarint()),
			Planes:    uint8(r.uvarint()),
		})
	}
	return links
}

// foldBounded is the readTable value of a shipped correction. The fold
// clamps to ±MaxObservationFoldMS; anything past the bound (plus
// quantization slack) is a forged or corrupt stream.
func foldBounded(r *wireReader) func(netsim.Prefix, uint64) float32 {
	return func(p netsim.Prefix, u uint64) float32 {
		ms := unquantAdj(u)
		if ms > MaxObservationFoldMS+0.01 || ms < -MaxObservationFoldMS-0.01 {
			r.fail("prefix %v correction %.2f ms outside ±%v bound", p, ms, MaxObservationFoldMS)
		}
		return ms
	}
}

// quantLat converts latency milliseconds to 0.01 ms wire units.
func quantLat(ms float32) uint64 {
	if ms < 0 {
		return 0
	}
	return uint64(ms*100 + 0.5)
}

func unquantLat(u uint64) float32 { return float32(u) / 100 }

// quantLoss converts a loss rate to 0.01% wire units.
func quantLoss(l float32) uint64 {
	if l < 0 {
		return 0
	}
	if l > 1 {
		l = 1
	}
	return uint64(l*10000 + 0.5)
}

func unquantLoss(u uint64) float32 { return float32(u) / 10000 }

// quantAdj converts a signed correction to zigzagged 0.01 ms wire units.
func quantAdj(ms float32) uint64 {
	var q int64
	if ms >= 0 {
		q = int64(ms*100 + 0.5)
	} else {
		q = int64(ms*100 - 0.5)
	}
	return zigzag(q)
}

func unquantAdj(u uint64) float32 { return float32(unzigzag(u)) / 100 }

// zigzag maps a signed value to an unsigned one with small magnitudes
// staying small (varint-friendly): 0,-1,1,-2,2 -> 0,1,2,3,4.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// writePrefixF32 writes a prefix-keyed float32 map as sorted delta-coded
// keys with zigzag-quantized values.
func writePrefixF32(w *sectionWriter, m map[netsim.Prefix]float32) {
	keys := make([]netsim.Prefix, 0, len(m))
	for p := range m {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.uvarint(uint64(len(keys)))
	prev := uint64(0)
	for _, p := range keys {
		w.uvarint(uint64(p) - prev)
		prev = uint64(p)
		w.uvarint(quantAdj(m[p]))
	}
}

// writeKeyU8 writes a uint64-keyed uint8 map as sorted delta-coded keys
// with uvarint values.
func writeKeyU8(w *sectionWriter, m map[uint64]uint8) {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.uvarint(uint64(len(keys)))
	prev := uint64(0)
	for _, k := range keys {
		w.uvarint(k - prev)
		prev = k
		w.uvarint(uint64(m[k]))
	}
}

// writePrefixClusterMap writes a prefix -> cluster map as sorted
// delta-coded keys with uvarint cluster IDs.
func writePrefixClusterMap(w *sectionWriter, m map[netsim.Prefix]cluster.ClusterID) {
	keys := make([]netsim.Prefix, 0, len(m))
	for p := range m {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.uvarint(uint64(len(keys)))
	prev := uint64(0)
	for _, p := range keys {
		w.uvarint(uint64(p) - prev)
		prev = uint64(p)
		w.uvarint(uint64(uint32(m[p])))
	}
}

// encodeSection renders one dataset into w.
func (a *Atlas) encodeSection(sec int, w *sectionWriter) {
	switch sec {
	case secClusterAS:
		w.uvarint(uint64(len(a.ClusterAS)))
		for _, asn := range a.ClusterAS {
			w.uvarint(uint64(asn))
		}
	case secLinks:
		w.uvarint(uint64(len(a.Links)))
		prevFrom := uint64(0)
		for _, l := range a.Links {
			f := uint64(uint32(l.From))
			w.uvarint(f - prevFrom) // Links are sorted by From
			prevFrom = f
			w.uvarint(uint64(uint32(l.To)))
			w.uvarint(quantLat(l.LatencyMS))
			w.uvarint(uint64(l.Planes))
		}
	case secLoss:
		keys := sortedKeys(a.Loss)
		w.uvarint(uint64(len(keys)))
		prev := uint64(0)
		for _, k := range keys {
			w.uvarint(k - prev)
			prev = k
			w.uvarint(quantLoss(a.Loss[k]))
		}
	case secPrefixCluster:
		writePrefixClusterMap(w, a.PrefixCluster)
	case secPrefixAS:
		keys := make([]netsim.Prefix, 0, len(a.PrefixAS))
		for p := range a.PrefixAS {
			keys = append(keys, p)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		w.uvarint(uint64(len(keys)))
		prev := uint64(0)
		for _, p := range keys {
			w.uvarint(uint64(p) - prev)
			prev = uint64(p)
			w.uvarint(uint64(a.PrefixAS[p]))
		}
	case secASDegree:
		keys := make([]netsim.ASN, 0, len(a.ASDegree))
		for asn := range a.ASDegree {
			keys = append(keys, asn)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		w.uvarint(uint64(len(keys)))
		prev := uint64(0)
		for _, asn := range keys {
			w.uvarint(uint64(asn) - prev)
			prev = uint64(asn)
			w.uvarint(uint64(a.ASDegree[asn]))
		}
	case secTuples:
		writeSortedSet(w, a.Tuples)
	case secPrefs:
		writeSortedSet(w, a.Prefs)
	case secProviders:
		keys := make([]netsim.ASN, 0, len(a.Providers))
		for asn := range a.Providers {
			keys = append(keys, asn)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		w.uvarint(uint64(len(keys)))
		prev := uint64(0)
		for _, asn := range keys {
			w.uvarint(uint64(asn) - prev)
			prev = uint64(asn)
			ps := a.Providers[asn]
			w.uvarint(uint64(len(ps)))
			pp := uint64(0)
			for _, p := range ps { // builder keeps these sorted
				w.uvarint(uint64(p) - pp)
				pp = uint64(p)
			}
		}
	case secRels:
		keys := make([]uint64, 0, len(a.Rels))
		for k := range a.Rels {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		w.uvarint(uint64(len(keys)))
		prev := uint64(0)
		for _, k := range keys {
			w.uvarint(k - prev)
			prev = k
			w.uvarint(uint64(uint8(a.Rels[k])))
		}
	case secLateExit:
		writeSortedSet(w, a.LateExit)
	case secGlobalAdjust:
		writePrefixF32(w, a.GlobalAdjustMS)
	case secObservedLink:
		writeKeyU8(w, a.ObservedLinks)
	case secObservedAttach:
		m := make(map[uint64]uint8, len(a.ObservedAttach))
		for p, v := range a.ObservedAttach {
			m[uint64(p)] = v
		}
		writeKeyU8(w, m)
	case secIfaceCluster:
		writePrefixClusterMap(w, a.IfaceCluster)
	}
}

func writeSortedSet(w *sectionWriter, m map[uint64]bool) {
	keys := sortedKeys(m)
	w.uvarint(uint64(len(keys)))
	prev := uint64(0)
	for _, k := range keys {
		w.uvarint(k - prev)
		prev = k
	}
}

// Encode writes the atlas as a gzip-compressed binary stream.
func (a *Atlas) Encode(w io.Writer) error {
	gz := gzip.NewWriter(w)
	if _, err := gz.Write([]byte(atlasMagic)); err != nil {
		return err
	}
	var hdr sectionWriter
	hdr.uvarint(atlasVersion)
	hdr.uvarint(uint64(a.Day))
	hdr.uvarint(uint64(a.NumClusters))
	if _, err := gz.Write(hdr.buf.Bytes()); err != nil {
		return err
	}
	for sec := 0; sec < numSections; sec++ {
		var sw sectionWriter
		sw.uvarint(uint64(sec))
		a.encodeSection(sec, &sw)
		if _, err := gz.Write(sw.buf.Bytes()); err != nil {
			return err
		}
	}
	return gz.Close()
}

// wireAtlas is one atlas stream as the parser leaves it: every keyed
// dataset already in the serving form's own sorted tables, the links in
// stream order, and the build-side lifetime tables the serving form does
// not carry.
type wireAtlas struct {
	flat          *Flat // the link table and the indexes are not built yet
	links         []Link
	obsLinkKeys   []uint64
	obsAttachKeys []netsim.Prefix
	obsLinkTTL    []uint8
	obsAttachTTL  []uint8
}

// readSection reads dataset sec into w. It is the one place a section's
// layout is read, and it checks what it reads against the header's cluster
// count and the bounds the build keeps, so a failure names its section.
func (w *wireAtlas) readSection(sec int, r *wireReader) {
	f := w.flat
	inSpace := func(c cluster.ClusterID) bool { return c >= 0 && int32(c) < f.NumClusters }
	attach := func(p netsim.Prefix, u uint64) cluster.ClusterID {
		c := cluster.ClusterID(uint32(u))
		if !inSpace(c) {
			r.fail("prefix %v maps to cluster %d outside cluster space %d", p, c, f.NumClusters)
		}
		return c
	}
	switch sec {
	case secClusterAS:
		if f.ClusterAS = readASNs(r); len(f.ClusterAS) != int(f.NumClusters) {
			r.fail("cluster count %d does not match AS table size %d", f.NumClusters, len(f.ClusterAS))
		}
	case secLinks:
		w.links = readLinks(r)
		for i, l := range w.links {
			switch {
			case !inSpace(l.From) || !inSpace(l.To):
				r.fail("link %d endpoints (%d,%d) outside cluster space %d", i, l.From, l.To, f.NumClusters)
			case l.Planes&^PlaneMask != 0:
				r.fail("link %d carries undefined plane bits %#x", i, l.Planes)
			case i > 0 && LinkKey(l.From, l.To) <= LinkKey(w.links[i-1].From, w.links[i-1].To):
				r.fail("link %d (%d,%d) after (%d,%d): keys must ascend strictly", i, l.From, l.To, w.links[i-1].From, w.links[i-1].To)
			}
		}
	case secLoss:
		f.LossKeys, f.LossVals = readTable(r, plain[uint64](unquantLoss))
	case secPrefixCluster:
		f.PrefixClKeys, f.PrefixClVals = readTable(r, attach)
	case secPrefixAS:
		f.PrefixASKeys, f.PrefixASVals = readTable(r, plain[netsim.Prefix](func(u uint64) netsim.ASN { return netsim.ASN(u) }))
	case secASDegree:
		f.DegKeys, f.DegVals = readTable(r, plain[netsim.ASN](func(u uint64) int32 { return int32(u) }))
	case secTuples:
		f.Tuples, _ = readTable[uint64, struct{}](r, nil)
	case secPrefs:
		f.Prefs, _ = readTable[uint64, struct{}](r, nil)
	case secProviders:
		// A provider list is a set of its own after each origin's key.
		provs := []uint64{}
		readTable(r, func(origin netsim.ASN, n uint64) (none struct{}) {
			first, up := len(provs), uint64(0)
			for n = r.plausible(n); n > 0 && r.err == nil; n-- {
				up += r.uvarint()
				k := uint64(origin)<<32 | uint64(netsim.ASN(up))
				if len(provs) > first && k <= provs[len(provs)-1] {
					r.fail("AS %d provider %d repeats or descends: keys must ascend strictly", origin, netsim.ASN(up))
				}
				provs = append(provs, k)
			}
			return none
		})
		f.Providers = provs
	case secRels:
		f.RelKeys, f.RelVals = readTable(r, plain[uint64](func(u uint64) netsim.Rel { return netsim.Rel(int8(u)) }))
	case secLateExit:
		f.LateExit, _ = readTable[uint64, struct{}](r, nil)
	case secGlobalAdjust:
		f.AdjustKeys, f.AdjustGlobal = readTable(r, foldBounded(r))
	case secObservedLink:
		w.obsLinkKeys, w.obsLinkTTL = readTable(r, observedTTL[uint64](r))
	case secObservedAttach:
		w.obsAttachKeys, w.obsAttachTTL = readTable(r, observedTTL[netsim.Prefix](r))
	case secIfaceCluster:
		f.IfaceKeys, f.IfaceVals = readTable(r, attach)
	}
}

// observedTTL is the readTable value of a crowd-observed lifetime. The fold
// never writes one above ObservedTTLDays, so a larger value is a forged
// stream trying to make unsupported structure immortal.
func observedTTL[K any](r *wireReader) func(K, uint64) uint8 {
	return func(k K, u uint64) uint8 {
		if ttl := uint8(u); ttl == 0 || ttl > ObservedTTLDays {
			r.fail("observed entry %v lifetime %d outside 1..%d", k, ttl, ObservedTTLDays)
		}
		return uint8(u)
	}
}

// parseAtlas reads one encoded atlas. Everything either door rejects is
// rejected here: a stream that is not gzip, fails its checksum, inflates
// past maxDecodedBytes or carries bytes after its last section; a wrong
// magic or version; an unknown, repeated or (there being numSections of
// them) missing section; a record count past maxSectionRecords; a key that
// does not ascend; and whatever readSection finds out of range.
func parseAtlas(in io.Reader) (*wireAtlas, error) {
	r, err := openWire(in, atlasMagic, "atlas")
	if err != nil {
		return nil, err
	}
	r.strict = true
	w := &wireAtlas{flat: &Flat{}}
	if day := r.uvarint(); r.err != nil {
		r.err = fmt.Errorf("truncated day: %w", r.err)
	} else if day > math.MaxInt32 {
		r.fail("day %d out of range", day)
	} else {
		w.flat.Day = int32(day)
	}
	// A cluster count is the ClusterAS section's record count.
	if w.flat.NumClusters = int32(r.count()); r.err != nil {
		r.err = fmt.Errorf("cluster count: %w", r.err)
	}
	seen := [numSections]bool{}
	for i := 0; i < numSections && r.err == nil; i++ {
		sec := r.uvarint()
		switch {
		case r.err != nil:
			r.err = fmt.Errorf("truncated at section %d: %w", i, r.err)
		case sec >= numSections:
			r.fail("unknown section id %d", sec)
		case seen[sec]:
			r.fail("section %s appears twice", SectionName(int(sec)))
		default:
			seen[sec] = true
			if w.readSection(int(sec), r); r.err != nil {
				r.err = fmt.Errorf("section %s: %w", SectionName(int(sec)), r.err)
			}
		}
	}
	return w, r.close("atlas")
}

// Decode reads an atlas produced by Encode into the map form, the build
// side's: Diff, the folds and the tools work on it. It fails with a
// descriptive error on malformed or truncated input. A serving client
// starts from DecodeFlat, which reads the same streams and rejects the
// same ones.
func Decode(r io.Reader) (*Atlas, error) {
	w, err := parseAtlas(r)
	if err != nil {
		return nil, err
	}
	a := w.flat.maps()
	a.Links = w.links
	a.GlobalAdjustMS = tableMap(w.flat.AdjustKeys, w.flat.AdjustGlobal)
	a.ObservedLinks = tableMap(w.obsLinkKeys, w.obsLinkTTL)
	a.ObservedAttach = tableMap(w.obsAttachKeys, w.obsAttachTTL)
	return a, nil
}

// DecodeFlat reads an atlas produced by Encode straight into its serving
// form: the Flat that Compile makes of what Decode returns, field for
// field, without a map, a sort or a hash on the way — the stream's sorted
// sections are adopted as the Flat's tables as they stand. The build-side
// lifetime tables are checked and dropped.
func DecodeFlat(r io.Reader) (*Flat, error) {
	w, err := parseAtlas(r)
	if err != nil {
		return nil, err
	}
	f := w.flat
	f.AdjustLocal = make([]float32, len(f.AdjustKeys))
	f.finish(w.links)
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// SectionSize describes one dataset's footprint (a row of Table 2).
type SectionSize struct {
	Name       string // dataset name as written in the section header
	Entries    int    // number of entries in the dataset
	Compressed int    // bytes after per-section gzip
}

// SectionSizes reports per-dataset entry counts and compressed sizes, the
// data behind Table 2.
func (a *Atlas) SectionSizes() []SectionSize {
	counts := a.Counts()
	entries := []int{
		secClusterAS:      len(a.ClusterAS),
		secLinks:          counts.Links,
		secLoss:           counts.Loss,
		secPrefixCluster:  counts.PrefixCluster,
		secPrefixAS:       counts.PrefixAS,
		secASDegree:       counts.ASDegree,
		secTuples:         counts.Tuples,
		secPrefs:          counts.Prefs,
		secProviders:      counts.Providers,
		secRels:           counts.Rels,
		secLateExit:       counts.LateExit,
		secGlobalAdjust:   len(a.GlobalAdjustMS),
		secObservedLink:   len(a.ObservedLinks),
		secObservedAttach: len(a.ObservedAttach),
		secIfaceCluster:   len(a.IfaceCluster),
	}
	out := make([]SectionSize, 0, numSections)
	for sec := 0; sec < numSections; sec++ {
		var sw sectionWriter
		a.encodeSection(sec, &sw)
		var gzBuf bytes.Buffer
		gz := gzip.NewWriter(&gzBuf)
		gz.Write(sw.buf.Bytes()) //nolint:errcheck // bytes.Buffer cannot fail
		gz.Close()               //nolint:errcheck
		out = append(out, SectionSize{
			Name:       SectionName(sec),
			Entries:    entries[sec],
			Compressed: gzBuf.Len(),
		})
	}
	return out
}

// EncodedSize returns the total compressed atlas size in bytes.
func (a *Atlas) EncodedSize() int {
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		return 0
	}
	return buf.Len()
}
