package atlas

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// The wire format is a gzip stream over: magic, version, day, cluster count,
// then one section per dataset. A section is written column-major: its
// record count, then each field's column in turn, so deflate meets a run of
// like values (see writeTable and writeLinks). Latencies quantize to
// 0.01 ms and loss rates to 0.01%, matching the paper's "pocket-sized"
// representation goals.
const (
	atlasMagic = "INANOATL"
	// atlasVersion 2 added the aggregated-corrections dataset
	// (GlobalAdjustMS) to both the atlas and the delta streams.
	// atlasVersion 3 added the crowd-observed structure fold: the
	// observed-link and observed-attachment TTL sections in the atlas
	// stream, and cluster growth + prefix-attachment updates in the delta
	// stream, so structure learned from uploaded traceroute hops ships to
	// delta-following clients.
	// atlasVersion 4 writes every section column-major, splits composite
	// keys into high and low parts, and writes each link pair once, in
	// both streams.
	// atlasVersion 5 codes three atlas sections against the AS adjacency the
	// relationships section ships, which now comes before them: each
	// 3-tuple's (b, c), each preference's (b, c) and each provider is its
	// index in a row of that graph (relcode.go); and the cluster → AS,
	// prefix → cluster and interface → cluster values are zigzag
	// differences from the value before.
	// atlasVersion 6 codes three more datasets against what comes before
	// them: the prefix → AS section writes only the prefixes whose origin
	// is not their attachment cluster's AS, the AS degrees section only the
	// ASes whose degree is not the length of their row in the AS adjacency,
	// and the links section each far end as the slot of its AS among its
	// near end's AS and that AS's neighbours, then its rank among that AS's
	// clusters (relcode.go). The sections are renumbered so that each
	// follows what it is coded against.
	atlasVersion = 6
	// deltaVersion 6 splits the delta stream's version from the atlas
	// stream's (v2-v5 shared one) and codes the delta against the base
	// atlas it patches: the delta names its base (day, shipped cluster
	// count, a CRC-32 of its index spaces), and each removal and each
	// re-annotation of a base link is an index into one of the base's
	// sorted tables instead of a key (see baseName).
	deltaVersion = 6

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

	// maxLatUnits bounds a link latency, in wire units of 0.01 ms: every
	// latency below it (65 536 ms) quantises back to itself once decoded,
	// which a re-annotation, a difference of quantised latencies, relies on.
	// Both encoders and every decoder refuse one at or past it.
	maxLatUnits = 1 << 16 * 100
)

// Where a keyed section splits its keys into a high and a low part (see
// writeTable): a composite key at its packing boundary, a plain one not at
// all.
const (
	splitPair   = 32 // LinkKey, netsim.ASPairKey, a provider key
	splitTriple = 21 // PackTriple: (a, b) above, c below
	unsplit     = 64 // a prefix, an AS number, a prefix kept as uint64
)

// Section identifiers (also the keys of SectionSizes), each after the
// sections it is coded against (codedAgainst).
const (
	secClusterAS = iota
	secRels
	secLinks
	secLoss
	secPrefixCluster
	secPrefixAS
	secASDegree
	secTuples
	secPrefs
	secProviders
	secLateExit
	secGlobalAdjust
	secObservedLink
	secObservedAttach
	secIfaceCluster
	numSections
)

// codedAgainst lists, for each section, the sections a reader must hold
// before it, because the section is written against them.
var codedAgainst = [numSections][]int{
	secLinks:     {secClusterAS, secRels},
	secPrefixAS:  {secClusterAS, secPrefixCluster},
	secASDegree:  {secRels},
	secTuples:    {secRels},
	secPrefs:     {secRels},
	secProviders: {secRels},
}

// sectionName returns the human-readable dataset name used in Table 2.
func sectionName(sec int) string {
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

// fixed32 writes v as four little-endian bytes.
func (w *sectionWriter) fixed32(v uint32) {
	w.buf.Write(binary.LittleEndian.AppendUint32(nil, v))
}

// column writes one field of n records: col(i) for record i.
func (w *sectionWriter) column(n int, col func(i int) uint64) {
	for i := range n {
		w.uvarint(col(i))
	}
}

// writeTable writes a keyed section column by column: the record count,
// the keys, then each of cols in turn. A key is split at bit split into a
// high and a low part (split 64 leaves it whole, for keys of 32 bits). The
// high parts come first, each as its difference from the one before; then
// the low parts, each as its difference from the one before within a run
// of equal high parts and whole at the start of one. Keys are written in
// the order given — Encode sorts them first — and readTable reads them back.
func writeTable[K ~uint32 | ~uint64](w *sectionWriter, keys []K, split uint, cols ...func(i int) uint64) {
	w.uvarint(uint64(len(keys)))
	var hi, lo uint64 // the parts of the key before
	if split < 64 {
		for _, k := range keys {
			w.uvarint(uint64(k)>>split - hi)
			hi = uint64(k) >> split
		}
		hi = 0
	}
	for _, k := range keys {
		h, l := uint64(k)>>split, uint64(k)&(1<<split-1)
		if h != hi {
			lo = 0
		}
		w.uvarint(l - lo)
		hi, lo = h, l
	}
	for _, col := range cols {
		w.column(len(keys), col)
	}
}

// writeMap writes m as a keyed section in key order, each value through enc.
func writeMap[K ~uint32 | ~uint64, V any](w *sectionWriter, m map[K]V, split uint, enc func(V) uint64) {
	keys := sortedKeys(m)
	writeTable(w, keys, split, func(i int) uint64 { return enc(m[keys[i]]) })
}

// linkRec is one record of a links section: a link, and its reverse when
// the two are written as one record.
type linkRec struct {
	Link
	rev    Link
	paired bool
}

// linkRecs returns the records a links section writes of links. Each key is
// written once — the last of a repeated key stands for it, as Apply keeps
// it — in (From, To) order, and each pair of a link and its reverse once,
// from its lower key (its lower-numbered From).
func linkRecs(links []Link) []linkRec {
	key := func(l Link) uint64 { return LinkKey(l.From, l.To) }
	links = slices.Clone(links)
	slices.SortStableFunc(links, func(a, b Link) int { return cmp.Compare(key(a), key(b)) })
	uniq := links[:0]
	for i, l := range links {
		if i+1 == len(links) || key(links[i+1]) != key(l) {
			uniq = append(uniq, l)
		}
	}
	var recs []linkRec
	for _, l := range uniq {
		k, rk := key(l), LinkKey(l.To, l.From)
		j, found := slices.BinarySearchFunc(uniq, rk, func(l Link, k uint64) int { return cmp.Compare(key(l), k) })
		switch {
		case found && rk < k:
			continue // written with its pair, from the other end
		case found && k < rk:
			recs = append(recs, linkRec{Link: l, rev: uniq[j], paired: true})
		default:
			recs = append(recs, linkRec{Link: l})
		}
	}
	return recs
}

// writeLinks writes a delta's links section: the records of links
// (linkRecs) as keys (writeTable), then their columns (writeLinkCols).
func writeLinks(w *sectionWriter, links []Link) {
	recs := linkRecs(links)
	writeTable(w, keysOf(recs), splitPair)
	writeLinkCols(w, recs)
}

// keysOf returns the LinkKey of each record.
func keysOf(recs []linkRec) []uint64 {
	keys := make([]uint64, len(recs))
	for i, rec := range recs {
		keys[i] = LinkKey(rec.From, rec.To)
	}
	return keys
}

// writeLinkCols writes the columns of a links section that follow its
// keys, in record order: a "reverse present" column of 0 or 1, the latency
// and planes columns, then, for each record with its reverse present, the
// reverse's latency as a zigzag difference from the record's quantized
// latency, and the reverse's planes.
func writeLinkCols(w *sectionWriter, recs []linkRec) {
	w.column(len(recs), func(i int) uint64 {
		if recs[i].paired {
			return 1
		}
		return 0
	})
	w.column(len(recs), func(i int) uint64 { return quantLat(recs[i].LatencyMS) })
	w.column(len(recs), func(i int) uint64 { return uint64(recs[i].Planes) })
	for _, rec := range recs {
		if rec.paired {
			w.uvarint(zigzag(int64(quantLat(rec.rev.LatencyMS) - quantLat(rec.LatencyMS))))
		}
	}
	for _, rec := range recs {
		if rec.paired {
			w.uvarint(uint64(rec.rev.Planes))
		}
	}
}

// writeAtlasLinks writes an atlas's links section, whose far ends are coded
// against the clusters of ClusterAS and the AS adjacency g: the ends of its
// records (writeEnds), then the columns of writeLinkCols.
func writeAtlasLinks(w *sectionWriter, links []Link, clusterAS []netsim.ASN, g *asGraph) {
	recs := linkRecs(links)
	writeEnds(w, keysOf(recs), clusterAS, g)
	writeLinkCols(w, recs)
}

// writeEnds writes the ends of the link records keys, in the order given
// (Encode's is (From, To) order): the record count; each run of records
// with one near end as the near end, less the one before it and one (as it
// is for the first run), and the run's length less one; then each far end.
// A far end is a slot among its near end's (clusterGroups), as a zigzag
// difference from the slot before in its run (from 0 for the first), then
// its rank among the clusters of the slot's AS, less the lowest it can
// have: 0, or where the slot is the one before, one past the rank before.
// The rank is left out where only that lowest one is left. A far end in no
// slot is an escape: the slot past the last, then the cluster itself.
func writeEnds(w *sectionWriter, keys []uint64, clusterAS []netsim.ASN, g *asGraph) {
	cg := newClusterGroups(clusterAS, g)
	rank := make([]int32, len(clusterAS)) // each cluster's place in its group
	for h := range len(cg.off) - 1 {
		for k := cg.off[h]; k < cg.off[h+1]; k++ {
			rank[cg.cl[k]] = k - cg.off[h]
		}
	}
	w.uvarint(uint64(len(keys)))
	for lo, hi := 0, 0; lo < len(keys); lo = hi {
		for hi = lo + 1; hi < len(keys) && keys[hi]>>32 == keys[lo]>>32; hi++ {
		}
		if lo == 0 {
			w.uvarint(keys[lo] >> 32)
		} else {
			w.uvarint(keys[lo]>>32 - keys[lo-1]>>32 - 1)
		}
		w.uvarint(uint64(hi - lo - 1))
	}
	inSpace := func(c uint64) bool { return c < uint64(len(clusterAS)) }
	slots, prevJ, prevK := 0, 0, int32(0)
	for i, k := range keys {
		from, to := k>>32, uint64(uint32(k))
		first := i == 0 || from != keys[i-1]>>32
		if first {
			slots, prevJ = 0, 0 // no slots for a near end outside the space
			if inSpace(from) {
				slots = cg.at(int32(from))
			}
		}
		j := slots // an escape
		if slots > 0 && inSpace(to) {
			if s := cg.slotOf(cg.group[to]); s >= 0 {
				j = s
			}
		}
		w.uvarint(zigzag(int64(j - prevJ)))
		if j == slots {
			w.uvarint(to)
		} else {
			base := int32(0) // the lowest rank the far end can have
			if j == prevJ && !first {
				base = prevK + 1
			}
			if h := cg.group[to]; cg.off[h+1]-cg.off[h]-base > 1 {
				w.uvarint(uint64(rank[to] - base))
			}
			prevK = rank[to]
		}
		prevJ = j
	}
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
	// strict makes readTable reject keys that do not ascend, and
	// readLinkCols undefined plane bits. An atlas is read strictly, against
	// its header's clusters; a delta's lists come as they are (Flat.Apply
	// sorts).
	strict   bool
	clusters int32
}

// ErrVersion is the refusal of a stream written in another version of its
// format than this binary reads: an atlas not of atlasVersion, a delta not of
// deltaVersion.
var ErrVersion = errors.New("unsupported version")

// openWire starts reading a stream that begins with magic and version. what
// names the stream in errors.
func openWire(in io.Reader, magic, what string, version uint64) (*wireReader, error) {
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
		} else if ver != version {
			r.fail("%w %d", ErrVersion, ver)
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

// fixed32 reads four bytes as a little-endian uint32.
func (r *wireReader) fixed32() uint32 {
	if r.end-r.off < 4 && r.srcErr == nil {
		r.fill()
	}
	if r.err != nil || r.end-r.off < 4 {
		r.readFailed(0)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) uvarint() uint64 {
	if r.end-r.off < binary.MaxVarintLen64 && r.srcErr == nil {
		r.fill()
	}
	if r.off < r.end && r.buf[r.off] < 0x80 && r.err == nil { // one byte, as most are
		r.off++
		return uint64(r.buf[r.off-1])
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

// count reads a record count, or fails on an implausible one and returns
// none.
func (r *wireReader) count() uint64 {
	n := r.uvarint()
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
// parallel key and value slices: the columns writeTable writes, the keys
// split at split (below 64 only for uint64 keys), then one value column
// whose varints val turns into values. A nil val reads a set — keys and
// nothing else — and returns no values. On a strict reader the keys must
// ascend strictly as stored, narrowed to K: Encode writes nothing else, and
// it is what lets the serving form adopt the slices without a sort, a hash
// or a second look. Otherwise the keys are kept as they come, repeats and
// all.
func readTable[K ~uint32 | ~uint64, V any](r *wireReader, split uint, val func(K, uint64) V) ([]K, []V) {
	n := r.count()
	keys := make([]K, 0, allocHint(n))
	if split < 64 {
		var hi uint64
		for i := uint64(0); i < n && r.err == nil; i++ {
			hi += r.uvarint()
			keys = append(keys, K(hi)) // its low part joins it below
		}
	}
	var hi, lo uint64
	for i := 0; uint64(i) < n && r.err == nil; i++ {
		if split >= 64 {
			keys = append(keys, 0)
		}
		h := uint64(keys[i])
		if h != hi {
			lo = 0
		}
		lo += r.uvarint()
		k := K(h<<split | lo)
		if r.strict && i > 0 && k <= keys[i-1] {
			r.fail("key %d after key %d: keys must ascend strictly", k, keys[i-1])
		}
		keys[i], hi = k, h
	}
	var vals []V
	if val != nil {
		vals = make([]V, 0, len(keys))
		for i := 0; i < len(keys) && r.err == nil; i++ {
			vals = append(vals, val(keys[i], r.uvarint()))
		}
	}
	if r.err != nil {
		return nil, nil // a column ran short: no table, and no keys without values
	}
	return keys, vals
}

// plain is a readTable value that needs no look at its key and cannot be
// wrong: the varint through conv.
func plain[K, V any](conv func(uint64) V) func(K, uint64) V {
	return func(_ K, u uint64) V { return conv(u) }
}

// readASNs reads a count and that many AS numbers, each varint through val.
func readASNs(r *wireReader, val func(uint64) netsim.ASN) []netsim.ASN {
	n := r.count()
	out := make([]netsim.ASN, 0, allocHint(n))
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, val(r.uvarint()))
	}
	return out
}

// readLinks reads a delta's links section: the record keys (readTable),
// then what readLinkCols reads. The links come in stream order, each implied
// reverse right after its record.
func readLinks(r *wireReader) []Link {
	keys, _ := readTable[uint64, struct{}](r, splitPair, nil)
	paired, pairs := readPaired(r, keys)
	at := make([]int32, 2*len(keys))
	for i, s := 0, int32(0); i < len(keys); i, s = i+1, s+1 {
		if at[2*i] = s; paired[i] {
			s++
			at[2*i+1] = s
		}
	}
	return readLinkCols(r, keys, paired, pairs, at)
}

// readAtlasLinks reads an atlas's links section (writeAtlasLinks), against
// the slots of cg, in (From, To) order. Besides what readFarEnds and
// readLinkCols refuse, it refuses a record whose reverse is written as a
// record of its own: an atlas writes each pair once.
func readAtlasLinks(r *wireReader, cg *clusterGroups) []Link {
	keys := readFarEnds(r, cg)
	if r.err != nil {
		return nil
	}
	// walk[c] is how far the search for reverses has come through the
	// records from cluster c, which ascend by To; it starts at the first
	// record from c or later. The records whose To is below their From come
	// in From order, so the reverses asked of each cluster ascend and its
	// walk only moves on: one pass in all, where a search per record would
	// cost a log factor.
	walk := make([]int32, r.clusters+1)
	for c, i := 0, 0; c < len(walk); c++ {
		for i < len(keys) && keys[i]>>32 < uint64(c) {
			i++
		}
		walk[c] = int32(i)
	}
	for _, k := range keys {
		if from, to := uint32(k>>32), uint32(k); to < from {
			j, rev := walk[to], reverseKey(k)
			for int(j) < len(keys) && keys[j] < rev {
				j++
			}
			if walk[to] = j; int(j) < len(keys) && keys[j] == rev {
				r.fail("both directions of link (%d,%d) written: a pair is written once", to, from)
				break
			}
		}
	}
	paired, pairs := readPaired(r, keys)
	if r.err != nil {
		return nil
	}
	at := make([]int32, 2*len(keys))
	clear(walk)
	canonicalPlaces(at, keys, paired, walk)
	return readLinkCols(r, keys, paired, pairs, at)
}

// readFarEnds reads the near and far ends of an atlas's link records
// (writeEnds) as LinkKeys, which must ascend strictly. A near end outside
// the cluster space is refused, and so are a run past the record count, a
// slot past the escape, a slot naming an AS with no cluster or the AS of an
// earlier slot, a rank past its AS's clusters, and an escape to a cluster
// outside the space or to one of the near end's candidates: Encode writes
// none of them. A record costs no search, and a near end's escapes one
// walk of its slots (slotOf).
func readFarEnds(r *wireReader, cg *clusterGroups) []uint64 {
	n := r.count()
	keys := make([]uint64, 0, allocHint(n))
	var next uint64 // the lowest near end the next run may have
	for uint64(len(keys)) < n && r.err == nil {
		switch u, more := r.uvarint(), r.uvarint(); {
		case u >= uint64(r.clusters)-next:
			r.fail("link %d near end %d+%d outside cluster space %d", len(keys), next, u, r.clusters)
		case more >= n-uint64(len(keys)):
			r.fail("link %d near end %d: a run of 1+%d links past the count %d", len(keys), next+u, more, n)
		default:
			for range more + 1 {
				keys = append(keys, (next+u)<<32)
			}
			next += u + 1
		}
	}
	slots, prevJ, prevK := 0, 0, 0
	for i := 0; i < len(keys) && r.err == nil; i++ {
		c := int32(keys[i] >> 32)
		first := i == 0 || keys[i-1]>>32 != uint64(c)
		if first {
			slots, prevJ = cg.at(c), 0
		}
		d := unzigzag(r.uvarint())
		if d < int64(-prevJ) || d > int64(slots-prevJ) {
			r.fail("far-end slot %d%+d of cluster %d past its %d slots", prevJ, d, c, slots)
			break
		}
		j := prevJ + int(d)
		var to uint64
		if j == slots {
			switch to = r.uvarint(); {
			case to >= uint64(r.clusters):
				r.fail("link (%d,%d) far end outside cluster space %d", c, to, r.clusters)
			case cg.slotOf(cg.group[to]) >= 0:
				r.fail("escaped far end %d of cluster %d is one of its candidates", to, c)
			}
		} else {
			h := cg.groupAt(j)
			switch {
			case h < 0:
				r.fail("far-end slot %d of cluster %d names an AS with no cluster", j, c)
			case cg.repeats(j):
				r.fail("far-end slot %d of cluster %d names the AS of an earlier slot", j, c)
			}
			if r.err != nil {
				break
			}
			base, size := uint64(0), uint64(cg.off[h+1]-cg.off[h])
			if j == prevJ && !first {
				base = uint64(prevK) + 1
			}
			k := base
			if size-base > 1 {
				k += min(r.uvarint(), size-base)
			}
			if k >= size {
				r.fail("far-end rank past the %d clusters in slot %d of cluster %d", size, j, c)
				break
			}
			to, prevK = uint64(cg.cl[cg.off[h]+int32(k)]), int(k)
		}
		if !first && to <= uint64(uint32(keys[i-1])) {
			r.fail("link (%d,%d) after (%d,%d): links must ascend strictly", c, to, c, uint32(keys[i-1]))
		}
		keys[i] |= to
		prevJ = j
	}
	if r.err != nil {
		return nil
	}
	return keys
}

// readPaired reads the "reverse present" column of the records keys. A flag
// other than 0 or 1, and one on a record that is not its pair's lower key,
// are refused. It returns the flags and how many are set.
func readPaired(r *wireReader, keys []uint64) ([]bool, int) {
	paired, pairs := make([]bool, len(keys)), 0
	for i := 0; i < len(keys) && r.err == nil; i++ {
		k := keys[i]
		switch u := r.uvarint(); {
		case u > 1:
			r.fail("link (%d,%d) reverse-present flag %d is neither 0 nor 1", k>>32, uint32(k), u)
		case u == 1 && reverseKey(k) <= k:
			r.fail("link (%d,%d) carries its reverse but is not its pair's lower key", k>>32, uint32(k))
		case u == 1:
			paired[i] = true
			pairs++
		}
	}
	return paired, pairs
}

// readLinkCols reads the columns writeLinkCols writes after the "reverse
// present" one — the latency and planes of each record, in stream order,
// then the latency difference and planes of each record's reverse — and
// returns the links, record i at at[2i] and its reverse at at[2i+1]. A
// latency at or past maxLatUnits is refused, and so is a reverse latency
// below zero; on a strict reader, an undefined plane bit too.
func readLinkCols(r *wireReader, keys []uint64, paired []bool, pairs int, at []int32) []Link {
	if r.err != nil {
		return nil
	}
	links := make([]Link, len(keys)+pairs)
	for i := 0; i < len(keys) && r.err == nil; i++ {
		u := r.uvarint()
		if u >= maxLatUnits {
			r.latFailed(i, u)
		}
		l := &links[at[2*i]]
		*l = Link{From: cluster.ClusterID(uint32(keys[i] >> 32)), To: cluster.ClusterID(uint32(keys[i])), LatencyMS: unquantLat(u)}
		if paired[i] {
			links[at[2*i+1]] = Link{From: l.To, To: l.From}
		}
	}
	planes := func(i int, l *Link) {
		if l.Planes = uint8(r.uvarint()); r.strict && l.Planes&^PlaneMask != 0 {
			r.fail("link %d carries undefined plane bits %#x", i, l.Planes)
		}
	}
	for i := 0; i < len(keys) && r.err == nil; i++ {
		planes(i, &links[at[2*i]])
	}
	for i := 0; i < len(keys) && r.err == nil; i++ {
		if paired[i] {
			base, d := quantLat(links[at[2*i]].LatencyMS), unzigzag(r.uvarint())
			if d < 0 && uint64(-d) > base {
				r.fail("link %d reverse latency difference %d goes below zero", i, d)
			}
			if u := base + uint64(d); u >= maxLatUnits {
				r.latFailed(i, u)
			}
			links[at[2*i+1]].LatencyMS = unquantLat(base + uint64(d))
		}
	}
	for i := 0; i < len(keys) && r.err == nil; i++ {
		if paired[i] {
			planes(i, &links[at[2*i+1]])
		}
	}
	if r.err != nil {
		return nil
	}
	return links
}

// latFailed refuses link record i's latency of u wire units, at or past
// maxLatUnits.
func (r *wireReader) latFailed(i int, u uint64) {
	r.fail("link %d latency %d.%02d ms at or past the %d ms bound", i, u/100, u%100, maxLatUnits/100)
}

// reverseKey is the LinkKey of the reverse of the link k keys.
func reverseKey(k uint64) uint64 { return k<<32 | k>>32 }

// canonicalPlaces sets at[2i] to where record i stands in (From, To) order
// and at[2i+1] to where its reverse does, if paired[i]. The records are in
// that order already (readFarEnds refuses any other). One stable counting
// pass over the reverses' From puts them in order too — a From's reverses
// come in To order, as their records do — and one merge of the two places
// both. There is no comparison sort: every cluster ID is below n, and no
// reverse is also a record (readFarEnds and readAtlasLinks check both).
// next is the pass's counting array, n+1 zeros: 4 B a cluster of the
// header's count, which count caps.
func canonicalPlaces(at []int32, keys []uint64, paired []bool, next []int32) {
	n := len(next) - 1
	for i, k := range keys {
		if paired[i] {
			next[uint32(k)+1]++
		}
	}
	for c := range n {
		next[c+1] += next[c]
	}
	revs := make([]int32, next[n]) // the paired records, by their reverses' keys
	for i, k := range keys {
		if paired[i] {
			revs[next[uint32(k)]] = int32(i)
			next[uint32(k)]++
		}
	}
	j := 0
	for i, k := range keys {
		for ; j < len(revs) && reverseKey(keys[revs[j]]) < k; j++ {
			at[2*revs[j]+1] = int32(i + j)
		}
		at[2*i] = int32(i + j)
	}
	for ; j < len(revs); j++ {
		at[2*revs[j]+1] = int32(len(keys) + j)
	}
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

// zigzagDiffs returns a column coder that writes each value as the zigzag
// difference from the one before; unzigzagDiffs reads such a column.
func zigzagDiffs() func(int64) uint64 {
	var prev int64
	return func(v int64) uint64 {
		u := zigzag(v - prev)
		prev = v
		return u
	}
}

func unzigzagDiffs() func(uint64) int64 {
	var prev int64
	return func(u uint64) int64 {
		prev += unzigzag(u)
		return prev
	}
}

// Two datasets are written as their exceptions to what the stream already
// implies: a prefix's origin is its attachment cluster's AS, and an AS's
// degree is the length of its row in the relationships' adjacency. An
// exception is a key (writeTable) and a value: 0 for a key with no value
// where one is implied, else one more than the zigzag difference of the
// value from the implied one, or, where none is implied, from the value of
// the exception before.

// implication names what an exceptions section's keys, values and implied
// values stand for, in its readers' complaints.
type implication struct{ key, by, val string }

var (
	originsImplied = implication{key: "prefix", by: "cluster", val: "origin"}
	degreesImplied = implication{key: "AS", by: "row", val: "degree"}
)

// writeExceptions writes the table keys → val(key), whose keys ascend, as
// its exceptions to the implied table imp → impVal(j), whose keys ascend.
func writeExceptions[K ~uint32, V ~uint32 | ~int32](w *sectionWriter, keys []K, val func(K) V, imp []K, impVal func(j int) V) {
	var ek []K
	var ev []uint64
	var prev int64
	except := func(k K, v, ref int64) {
		ek, ev = append(ek, k), append(ev, zigzag(v-ref)+1)
		prev = v
	}
	for i, j := 0, 0; i < len(keys) || j < len(imp); {
		switch {
		case j == len(imp) || i < len(keys) && keys[i] < imp[j]:
			except(keys[i], int64(val(keys[i])), prev)
			i++
		case i == len(keys) || imp[j] < keys[i]:
			ek, ev = append(ek, imp[j]), append(ev, 0)
			j++
		default:
			if v, iv := val(keys[i]), impVal(j); v != iv {
				except(keys[i], int64(v), int64(iv))
			}
			i, j = i+1, j+1
		}
	}
	writeTable(w, ek, unsplit, func(i int) uint64 { return ev[i] })
}

// readExceptions reads what writeExceptions writes against the implied table
// imp → impVal(j) and returns the whole table. It refuses what Encode never
// writes: an exception that says no value where none is implied, or the
// value that is implied; and a value outside V.
func readExceptions[K ~uint32, V ~uint32 | ~int32](r *wireReader, imp []K, impVal func(j int) V, what implication) ([]K, []V) {
	ek, _ := readTable[K, struct{}](r, unsplit, nil) // the values follow, read as the merge meets them
	keys, vals := make([]K, 0, len(imp)+len(ek)), make([]V, 0, len(imp)+len(ek))
	var prev int64
	// value turns exception i's varint u, taken against ref, into a V.
	value := func(i int, u uint64, ref int64) V {
		v := ref + unzigzag(u-1)
		if int64(V(v)) != v {
			r.fail("%s %d %s %d out of range", what.key, ek[i], what.val, v)
		}
		prev = v
		return V(v)
	}
	for i, j := 0, 0; (i < len(ek) || j < len(imp)) && r.err == nil; {
		switch {
		case i == len(ek) || j < len(imp) && imp[j] < ek[i]:
			keys, vals = append(keys, imp[j]), append(vals, impVal(j))
			j++
		case j == len(imp) || ek[i] < imp[j]:
			if u := r.uvarint(); u == 0 {
				r.fail("%s %d has no %s and no %s", what.key, ek[i], what.by, what.val)
			} else if v := value(i, u, prev); r.err == nil {
				keys, vals = append(keys, ek[i]), append(vals, v)
			}
			i++
		default:
			switch u := r.uvarint(); {
			case u == 1:
				r.fail("%s %d %s %d is the one its %s implies", what.key, ek[i], what.val, impVal(j), what.by)
			case u > 1:
				if v := value(i, u, int64(impVal(j))); r.err == nil {
					keys, vals = append(keys, ek[i]), append(vals, v)
				}
			}
			i, j = i+1, j+1
		}
	}
	if r.err != nil {
		return nil, nil
	}
	return keys, vals
}

// encodeSection renders one dataset into w; g is the adjacency of a.Rels.
func (a *Atlas) encodeSection(sec int, g *asGraph, w *sectionWriter) {
	attach := func() func(cluster.ClusterID) uint64 {
		next := zigzagDiffs()
		return func(c cluster.ClusterID) uint64 { return next(int64(c)) }
	}
	ttl := func(v uint8) uint64 { return uint64(v) }
	switch sec {
	case secClusterAS:
		next := zigzagDiffs()
		w.uvarint(uint64(len(a.ClusterAS)))
		w.column(len(a.ClusterAS), func(i int) uint64 { return next(int64(a.ClusterAS[i])) })
	case secLinks:
		writeAtlasLinks(w, a.Links, a.ClusterAS, g)
	case secLoss:
		writeMap(w, a.Loss, splitPair, quantLoss)
	case secPrefixCluster:
		writeMap(w, a.PrefixCluster, unsplit, attach())
	case secPrefixAS:
		attached := sortedKeys(a.PrefixCluster)
		writeExceptions(w, sortedKeys(a.PrefixAS), func(p netsim.Prefix) netsim.ASN { return a.PrefixAS[p] },
			attached, func(j int) netsim.ASN {
				if c := a.PrefixCluster[attached[j]]; c >= 0 && int(c) < len(a.ClusterAS) {
					return a.ClusterAS[c]
				}
				return 0 // outside the cluster space, which no reader accepts
			})
	case secASDegree:
		writeExceptions(w, sortedKeys(a.ASDegree), func(as netsim.ASN) int32 { return a.ASDegree[as] },
			g.as, func(j int) int32 { return int32(len(g.row(int32(j)))) })
	case secTuples:
		writeRelSet(w, g, sortedKeys(a.Tuples), tupleShape)
	case secPrefs:
		writeRelSet(w, g, sortedKeys(a.Prefs), prefShape)
	case secProviders:
		writeRelSet(w, g, providerKeys(a.Providers), providerShape)
	case secRels:
		writeMap(w, a.Rels, splitPair, func(r netsim.Rel) uint64 { return uint64(uint8(r)) })
	case secLateExit:
		writeTable(w, sortedKeys(a.LateExit), splitPair)
	case secGlobalAdjust:
		writeMap(w, a.GlobalAdjustMS, unsplit, quantAdj)
	case secObservedLink:
		writeMap(w, a.ObservedLinks, splitPair, ttl)
	case secObservedAttach:
		writeMap(w, a.ObservedAttach, unsplit, ttl)
	case secIfaceCluster:
		writeMap(w, a.IfaceCluster, unsplit, attach())
	}
}

// latOnWire reports whether a latency of ms quantises below maxLatUnits.
func latOnWire(ms float32) bool { return ms < maxLatUnits/100 && quantLat(ms) < maxLatUnits }

// checkLatencies refuses links with a latency the wire does not carry.
func checkLatencies(links []Link) error {
	for _, l := range links {
		if !latOnWire(l.LatencyMS) {
			return fmt.Errorf("atlas: link (%d,%d) latency %v ms is at or past the %d ms bound", l.From, l.To, l.LatencyMS, maxLatUnits/100)
		}
	}
	return nil
}

// Encode writes the atlas as a gzip-compressed binary stream. It refuses an
// atlas with a link latency at or past the wire's bound (maxLatUnits).
func (a *Atlas) Encode(w io.Writer) error {
	if err := checkLatencies(a.Links); err != nil {
		return err
	}
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
	g := newASGraph(sortedKeys(a.Rels))
	for sec := 0; sec < numSections; sec++ {
		var sw sectionWriter
		sw.uvarint(uint64(sec))
		a.encodeSection(sec, g, &sw)
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
	seen          [numSections]bool
	rels          *asGraph // the relationships' adjacency, once they are read
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
	attach := func() func(netsim.Prefix, uint64) cluster.ClusterID {
		next := unzigzagDiffs()
		return func(p netsim.Prefix, u uint64) cluster.ClusterID {
			c := next(u)
			if c < 0 || c >= int64(f.NumClusters) {
				r.fail("prefix %v maps to cluster %d outside cluster space %d", p, c, f.NumClusters)
			}
			return cluster.ClusterID(c)
		}
	}
	for _, dep := range codedAgainst[sec] {
		if !w.seen[dep] {
			r.fail("written before section %s, which it is coded against", sectionName(dep))
			return
		}
	}
	switch sec {
	case secClusterAS:
		next := unzigzagDiffs()
		f.ClusterAS = readASNs(r, func(u uint64) netsim.ASN {
			as := next(u)
			if as < 0 || as > math.MaxUint32 {
				r.fail("cluster AS %d outside 32 bits", as)
			}
			return netsim.ASN(as)
		})
		if r.err == nil && len(f.ClusterAS) != int(f.NumClusters) {
			r.fail("cluster count %d does not match AS table size %d", f.NumClusters, len(f.ClusterAS))
		}
	case secLinks:
		w.links = readAtlasLinks(r, newClusterGroups(f.ClusterAS, w.rels))
	case secLoss:
		f.LossKeys, f.LossVals = readTable(r, splitPair, plain[uint64](unquantLoss))
	case secPrefixCluster:
		f.PrefixClKeys, f.PrefixClVals = readTable(r, unsplit, attach())
	case secPrefixAS:
		f.PrefixASKeys, f.PrefixASVals = readExceptions(r, f.PrefixClKeys,
			func(j int) netsim.ASN { return f.ClusterAS[f.PrefixClVals[j]] }, originsImplied)
	case secASDegree:
		f.DegKeys, f.DegVals = readExceptions(r, w.rels.as,
			func(j int) int32 { return int32(len(w.rels.row(int32(j)))) }, degreesImplied)
	case secRels:
		f.RelKeys, f.RelVals = readTable(r, splitPair, plain[uint64](func(u uint64) netsim.Rel { return netsim.Rel(int8(u)) }))
		w.rels = newASGraph(f.RelKeys)
	case secTuples:
		f.Tuples = readRelSet(r, w.rels, tupleShape)
	case secPrefs:
		f.Prefs = readRelSet(r, w.rels, prefShape)
	case secProviders:
		f.Providers = readRelSet(r, w.rels, providerShape)
	case secLateExit:
		f.LateExit, _ = readTable[uint64, struct{}](r, splitPair, nil)
	case secGlobalAdjust:
		f.AdjustKeys, f.AdjustGlobal = readTable(r, unsplit, foldBounded(r))
	case secObservedLink:
		w.obsLinkKeys, w.obsLinkTTL = readTable(r, splitPair, observedTTL[uint64](r))
	case secObservedAttach:
		w.obsAttachKeys, w.obsAttachTTL = readTable(r, unsplit, observedTTL[netsim.Prefix](r))
	case secIfaceCluster:
		f.IfaceKeys, f.IfaceVals = readTable(r, unsplit, attach())
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
// them) missing section; a set coded against the relationships that comes
// before them; a record count past maxSectionRecords; a key that does not
// ascend; and whatever readSection finds out of range.
func parseAtlas(in io.Reader) (*wireAtlas, error) {
	r, err := openWire(in, atlasMagic, "atlas", atlasVersion)
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
	r.clusters = w.flat.NumClusters
	for i := 0; i < numSections && r.err == nil; i++ {
		sec := r.uvarint()
		switch {
		case r.err != nil:
			r.err = fmt.Errorf("truncated at section %d: %w", i, r.err)
		case sec >= numSections:
			r.fail("unknown section id %d", sec)
		case w.seen[sec]:
			r.fail("section %s appears twice", sectionName(int(sec)))
		default:
			if w.readSection(int(sec), r); r.err != nil {
				r.err = fmt.Errorf("section %s: %w", sectionName(int(sec)), r.err)
			}
			w.seen[sec] = true
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
	g := newASGraph(sortedKeys(a.Rels))
	for sec := 0; sec < numSections; sec++ {
		var sw sectionWriter
		a.encodeSection(sec, g, &sw)
		var gzBuf bytes.Buffer
		gz := gzip.NewWriter(&gzBuf)
		gz.Write(sw.buf.Bytes()) //nolint:errcheck // bytes.Buffer cannot fail
		gz.Close()               //nolint:errcheck
		out = append(out, SectionSize{
			Name:       sectionName(sec),
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
