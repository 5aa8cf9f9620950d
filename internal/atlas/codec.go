package atlas

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
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

type sectionReader struct {
	r *bufio.Reader
}

func (r *sectionReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(r.r)
}

// count reads a record count and rejects implausible values.
func (r *sectionReader) count() (uint64, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > maxSectionRecords {
		return 0, fmt.Errorf("record count %d exceeds limit %d", n, int64(maxSectionRecords))
	}
	return n, nil
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

// readPrefixF32 reads a map written by writePrefixF32.
func readPrefixF32(r *sectionReader, into map[netsim.Prefix]float32) error {
	n, err := r.count()
	if err != nil {
		return err
	}
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, err := r.uvarint()
		if err != nil {
			return err
		}
		prev += d
		q, err := r.uvarint()
		if err != nil {
			return err
		}
		into[netsim.Prefix(prev)] = unquantAdj(q)
	}
	return nil
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

// readKeyU8 reads a map written by writeKeyU8.
func readKeyU8(r *sectionReader, set func(k uint64, v uint8)) error {
	n, err := r.count()
	if err != nil {
		return err
	}
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, err := r.uvarint()
		if err != nil {
			return err
		}
		prev += d
		v, err := r.uvarint()
		if err != nil {
			return err
		}
		set(prev, uint8(v))
	}
	return nil
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

// readPrefixClusterMap reads a map written by writePrefixClusterMap.
func readPrefixClusterMap(r *sectionReader, into map[netsim.Prefix]cluster.ClusterID) error {
	n, err := r.count()
	if err != nil {
		return err
	}
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, err := r.uvarint()
		if err != nil {
			return err
		}
		prev += d
		c, err := r.uvarint()
		if err != nil {
			return err
		}
		into[netsim.Prefix(prev)] = cluster.ClusterID(uint32(c))
	}
	return nil
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

func readSet(r *sectionReader, into map[uint64]bool) error {
	n, err := r.count()
	if err != nil {
		return err
	}
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, err := r.uvarint()
		if err != nil {
			return err
		}
		prev += d
		into[prev] = true
	}
	return nil
}

func (a *Atlas) decodeSection(sec int, r *sectionReader) error {
	switch sec {
	case secClusterAS:
		n, err := r.count()
		if err != nil {
			return err
		}
		a.ClusterAS = make([]netsim.ASN, 0, allocHint(n))
		for i := uint64(0); i < n; i++ {
			v, err := r.uvarint()
			if err != nil {
				return err
			}
			a.ClusterAS = append(a.ClusterAS, netsim.ASN(v))
		}
	case secLinks:
		n, err := r.count()
		if err != nil {
			return err
		}
		a.Links = make([]Link, 0, allocHint(n))
		prevFrom := uint64(0)
		for i := uint64(0); i < n; i++ {
			df, err := r.uvarint()
			if err != nil {
				return err
			}
			prevFrom += df
			to, err := r.uvarint()
			if err != nil {
				return err
			}
			lat, err := r.uvarint()
			if err != nil {
				return err
			}
			planes, err := r.uvarint()
			if err != nil {
				return err
			}
			a.Links = append(a.Links, Link{
				From:      cluster.ClusterID(uint32(prevFrom)),
				To:        cluster.ClusterID(uint32(to)),
				LatencyMS: unquantLat(lat),
				Planes:    uint8(planes),
			})
		}
	case secLoss:
		n, err := r.count()
		if err != nil {
			return err
		}
		prev := uint64(0)
		for i := uint64(0); i < n; i++ {
			d, err := r.uvarint()
			if err != nil {
				return err
			}
			prev += d
			q, err := r.uvarint()
			if err != nil {
				return err
			}
			a.Loss[prev] = unquantLoss(q)
		}
	case secPrefixCluster:
		return readPrefixClusterMap(r, a.PrefixCluster)
	case secPrefixAS:
		n, err := r.count()
		if err != nil {
			return err
		}
		prev := uint64(0)
		for i := uint64(0); i < n; i++ {
			d, err := r.uvarint()
			if err != nil {
				return err
			}
			prev += d
			asn, err := r.uvarint()
			if err != nil {
				return err
			}
			a.PrefixAS[netsim.Prefix(prev)] = netsim.ASN(asn)
		}
	case secASDegree:
		n, err := r.count()
		if err != nil {
			return err
		}
		prev := uint64(0)
		for i := uint64(0); i < n; i++ {
			d, err := r.uvarint()
			if err != nil {
				return err
			}
			prev += d
			deg, err := r.uvarint()
			if err != nil {
				return err
			}
			a.ASDegree[netsim.ASN(prev)] = int32(deg)
		}
	case secTuples:
		return readSet(r, a.Tuples)
	case secPrefs:
		return readSet(r, a.Prefs)
	case secProviders:
		n, err := r.count()
		if err != nil {
			return err
		}
		prev := uint64(0)
		for i := uint64(0); i < n; i++ {
			d, err := r.uvarint()
			if err != nil {
				return err
			}
			prev += d
			cnt, err := r.count()
			if err != nil {
				return err
			}
			ps := make([]netsim.ASN, 0, allocHint(cnt))
			pp := uint64(0)
			for j := uint64(0); j < cnt; j++ {
				dp, err := r.uvarint()
				if err != nil {
					return err
				}
				pp += dp
				ps = append(ps, netsim.ASN(pp))
			}
			a.Providers[netsim.ASN(prev)] = ps
		}
	case secRels:
		n, err := r.count()
		if err != nil {
			return err
		}
		prev := uint64(0)
		for i := uint64(0); i < n; i++ {
			d, err := r.uvarint()
			if err != nil {
				return err
			}
			prev += d
			rel, err := r.uvarint()
			if err != nil {
				return err
			}
			a.Rels[prev] = netsim.Rel(int8(rel))
		}
	case secLateExit:
		return readSet(r, a.LateExit)
	case secGlobalAdjust:
		return readPrefixF32(r, a.GlobalAdjustMS)
	case secObservedLink:
		return readKeyU8(r, func(k uint64, v uint8) { a.ObservedLinks[k] = v })
	case secObservedAttach:
		return readKeyU8(r, func(k uint64, v uint8) { a.ObservedAttach[netsim.Prefix(k)] = v })
	case secIfaceCluster:
		return readPrefixClusterMap(r, a.IfaceCluster)
	}
	return nil
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

// Decode reads an atlas produced by Encode. It fails with a descriptive
// error on malformed or truncated input.
func Decode(r io.Reader) (*Atlas, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("atlas: not a compressed atlas: %w", err)
	}
	defer gz.Close()
	// One byte of headroom so a stream of exactly maxDecodedBytes is not
	// misreported as over-limit (N==0 below). Streams far past the limit
	// usually surface earlier as truncated-section or trailing-garbage
	// errors once the LimitedReader runs dry; the N==0 check catches the
	// ones that end right at the boundary.
	lr := &io.LimitedReader{R: gz, N: maxDecodedBytes + 1}
	br := bufio.NewReader(lr)
	magic := make([]byte, len(atlasMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("atlas: truncated header: %w", err)
	}
	if string(magic) != atlasMagic {
		return nil, fmt.Errorf("atlas: bad magic %q", magic)
	}
	sr := &sectionReader{r: br}
	ver, err := sr.uvarint()
	if err != nil {
		return nil, fmt.Errorf("atlas: truncated version: %w", err)
	}
	if ver != atlasVersion {
		return nil, fmt.Errorf("atlas: unsupported version %d", ver)
	}
	a := New()
	day, err := sr.uvarint()
	if err != nil {
		return nil, fmt.Errorf("atlas: truncated day: %w", err)
	}
	a.Day = int(day)
	nc, err := sr.uvarint()
	if err != nil {
		return nil, fmt.Errorf("atlas: truncated cluster count: %w", err)
	}
	a.NumClusters = int(nc)
	for i := 0; i < numSections; i++ {
		sec, err := sr.uvarint()
		if err != nil {
			return nil, fmt.Errorf("atlas: truncated at section %d: %w", i, err)
		}
		if sec >= numSections {
			return nil, fmt.Errorf("atlas: unknown section id %d", sec)
		}
		if err := a.decodeSection(int(sec), sr); err != nil {
			return nil, fmt.Errorf("atlas: section %s: %w", SectionName(int(sec)), err)
		}
	}
	// Drain to EOF so the gzip checksum is verified and truncated
	// trailers are caught.
	if n, err := io.Copy(io.Discard, br); err != nil {
		return nil, fmt.Errorf("atlas: corrupt stream trailer: %w", err)
	} else if n != 0 {
		return nil, fmt.Errorf("atlas: %d bytes of trailing garbage", n)
	}
	if lr.N == 0 {
		return nil, fmt.Errorf("atlas: stream exceeds %d-byte decode limit", int64(maxDecodedBytes))
	}
	if err := a.validate(); err != nil {
		return nil, fmt.Errorf("atlas: %w", err)
	}
	a.invalidateIndex()
	return a, nil
}

// validate rejects decoded atlases whose cross-references are inconsistent
// — corruption the per-section decoders cannot see. Consumers (the engine,
// Clone, Diff) index ClusterAS and Links by cluster ID, so these
// invariants are what make a decoded atlas safe to use.
func (a *Atlas) validate() error {
	if a.NumClusters < 0 || a.NumClusters != len(a.ClusterAS) {
		return fmt.Errorf("cluster count %d does not match AS table size %d", a.NumClusters, len(a.ClusterAS))
	}
	for i, l := range a.Links {
		if int(l.From) >= a.NumClusters || int(l.To) >= a.NumClusters || l.From < 0 || l.To < 0 {
			return fmt.Errorf("link %d endpoints (%d,%d) outside cluster space %d", i, l.From, l.To, a.NumClusters)
		}
		if l.Planes&^PlaneMask != 0 {
			return fmt.Errorf("link %d carries undefined plane bits %#x", i, l.Planes)
		}
	}
	for p, c := range a.PrefixCluster {
		if int(c) >= a.NumClusters || c < 0 {
			return fmt.Errorf("prefix %v attaches to cluster %d outside cluster space %d", p, c, a.NumClusters)
		}
	}
	for p, c := range a.IfaceCluster {
		if int(c) >= a.NumClusters || c < 0 {
			return fmt.Errorf("interface prefix %v maps to cluster %d outside cluster space %d", p, c, a.NumClusters)
		}
	}
	for p, ms := range a.GlobalAdjustMS {
		// The fold clamps to ±MaxObservationFoldMS; anything past the
		// bound (plus quantization slack) is a forged or corrupt stream.
		if ms > MaxObservationFoldMS+0.01 || ms < -MaxObservationFoldMS-0.01 {
			return fmt.Errorf("prefix %v correction %.2f ms outside ±%v bound", p, ms, MaxObservationFoldMS)
		}
	}
	// Crowd-observed lifetimes: the fold never writes TTLs above
	// ObservedTTLDays, so a larger value is a forged stream trying to make
	// unsupported structure immortal.
	for k, ttl := range a.ObservedLinks {
		if ttl == 0 || ttl > ObservedTTLDays {
			return fmt.Errorf("observed link %#x lifetime %d outside 1..%d", k, ttl, ObservedTTLDays)
		}
	}
	for p, ttl := range a.ObservedAttach {
		if ttl == 0 || ttl > ObservedTTLDays {
			return fmt.Errorf("observed attachment %v lifetime %d outside 1..%d", p, ttl, ObservedTTLDays)
		}
	}
	return nil
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
