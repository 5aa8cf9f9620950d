// Package inano is the client library of iPlane Nano: a lightweight Internet
// path performance predictor for peer-to-peer applications (Madhyastha et
// al., NSDI 2009).
//
// A Client loads the compact link-level atlas (a few megabytes), optionally
// fetched from a peer-to-peer swarm, answers local queries for the
// PoP-level path, latency, and loss rate between arbitrary end hosts, keeps
// itself current by applying small daily deltas, and contributes its own
// traceroutes to sharpen predictions for paths out of this host.
//
// Application helpers cover the paper's three case studies: CDN replica
// selection (§7.1), VoIP relay selection (§7.2), and detour routing around
// failures (§7.3).
//
//	client, err := inano.Load(atlasFile)
//	info := client.Query(srcIP, dstIP)
//	fmt.Println(info.RTTMS, info.LossRate, info.Fwd.ASPath)
//
// # Questions and snapshots
//
// A Client owns the atlas's lifecycle: it loads it, rolls it (ApplyDelta,
// FetchDelta, AddTraceroutes) and takes observations (ObserveRTT,
// NewCorrector). Questions go to a Snapshot, a pinned atlas version that
// answers each one with one method, under a context and keyed by Prefix:
// Query for one pair, QueryReqs for a batch of pairs ("predict from me to
// these N candidates" — the shape of CDN replica selection and relay
// ranking — in one call), StreamBatch for a long stream answered window
// by window, and Rank, BestRelay and RankDetours for the paper's case
// studies. A batch is grouped by destination prediction tree and the tree
// computation fanned across up to GOMAXPROCS workers, so a batch sharing
// destinations costs far fewer Dijkstra runs than N sequential queries;
// results are identical to issuing the queries one at a time. The context
// bounds tail latency: cancellation skips remaining tree builds, unblocks
// waits on builds owned by other callers, and returns ctx.Err(); a
// PairReq.Deadline bounds one pair alone.
//
//	reqs := make([]inano.PairReq, len(replicaIPs))
//	for i, r := range replicaIPs {
//		reqs[i] = inano.PairOf(me, r)
//	}
//	infos, _, err := client.Snapshot().QueryReqs(ctx, reqs)
//
// All query methods are safe for unbounded concurrent use and take no lock:
// each loads the current engine from an atomic pointer. Mutations
// (ApplyDelta, AddTraceroutes) serialize among themselves, do all their
// work on the side — a day roll and a traceroute merge alike are a Delta
// through one merge pass over the compiled atlas (atlas.Flat.Apply), not a
// rebuild — and publish the finished engine with a single atomic store, so
// no query ever waits for one: queries in flight finish on the engine they
// started on, later ones see the new atlas — and, when the change emptied
// the prediction-tree cache, find yesterday's trees being rebuilt behind it.
//
// # Measurement feedback
//
// ObserveRTT scores an application's measured RTT against the prediction
// and folds the error into the client's tracker (feedback.NewTracker(),
// which takes no settings: a new sample weighs 0.25, at most 4096
// destination clusters are tracked, and error older than 15 minutes is
// not acted on); NewCorrector spends corrective traceroutes on the worst
// of them. Sharing the corrections with a build server is opt-in, through
// NewUploader(url), which takes only the server's observation endpoint.
package inano

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"iter"
	"slices"
	"sync"
	"sync/atomic"

	"inano/internal/atlas"
	"inano/internal/core"
	"inano/internal/feedback"
	"inano/internal/netsim"
	"inano/internal/swarm"
)

// Re-exported identifier types, so applications need no internal imports.
type (
	// IP is an IPv4 address as a 32-bit word.
	IP = netsim.IP
	// Prefix is a /24 prefix identifier (IP >> 8).
	Prefix = netsim.Prefix
	// ASN is an autonomous system number.
	ASN = netsim.ASN
	// PathInfo is a bidirectional query answer.
	PathInfo = core.PathInfo
	// Prediction is a one-way predicted path.
	Prediction = core.Prediction
	// CacheStats reports prediction-tree cache counters.
	CacheStats = core.CacheStats
	// Delta is a day-over-day atlas update.
	Delta = atlas.Delta
	// Manifest describes a swarmed atlas file.
	Manifest = swarm.Manifest
	// RollStats reports what one applied delta changed.
	RollStats = atlas.RollStats
)

// Client answers path queries from a local atlas. Queries are safe for
// unbounded concurrent use and never block: they read the current engine
// through an atomic pointer. Mutating operations (ApplyDelta,
// AddTraceroutes) serialize on a mutex no query takes and publish a new
// engine when they are done. The Client holds the atlas in one form only,
// the engine's compiled atlas.Flat.
type Client struct {
	// engine is the published serving engine; every query path loads it.
	engine atomic.Pointer[core.Engine]
	opts   core.Options
	// wmu serializes writers, from reading the current engine to publishing
	// its successor, and guards localCluster. No reader takes it.
	wmu sync.Mutex
	// localCluster records the local cluster of each /24 whose interfaces
	// local measurements discovered: its index among the local clusters,
	// which sit past the shipped ones (atlas.Flat.ShippedClusters), so a
	// day roll that moves them up leaves it as it is.
	localCluster map[Prefix]int32
	// lastRoll is what the last applied delta changed; nil before the first.
	// Traceroute merges do not store here.
	lastRoll atomic.Pointer[RollStats]
	// tracker aggregates observed-vs-predicted error per destination
	// cluster (the feedback loop's scheduling signal).
	tracker *feedback.Tracker
	// beforePublish, when set by a test, runs on the writer's goroutine
	// with wmu held, after the next engine is built and before it is
	// published.
	beforePublish func()
	// startWarm, when set by a test, is handed the warmer publish would
	// have started on a goroutine: to run inline, park, or wait for.
	startWarm func(warm func())
}

// FromAtlas wraps an in-memory atlas with the full iNano configuration.
// The atlas is compiled into its serving form here; the client keeps no
// reference to a.
func FromAtlas(a *atlas.Atlas) *Client {
	return FromFlat(atlas.Compile(a))
}

// FromFlat wraps a compiled flat atlas (e.g. one mmap'd from disk via
// atlas.OpenFlat) with the full iNano configuration. Startup skips the
// map-based build entirely. The first applied delta moves the client onto
// a Flat in memory of its own; a mapping may be closed once no Snapshot
// taken before that is still in use.
func FromFlat(f *atlas.Flat) *Client {
	return FromFlatOptions(f, core.INanoOptions())
}

// FromFlatOptions is FromFlat with an explicit algorithm configuration.
func FromFlatOptions(f *atlas.Flat, opts core.Options) *Client {
	c := &Client{
		opts:         opts,
		localCluster: make(map[Prefix]int32),
		tracker:      feedback.NewTracker(),
	}
	c.engine.Store(core.NewFromFlat(f, opts))
	return c
}

// Load reads an encoded atlas (as produced by the build server or fetched
// from the swarm) straight into its serving form; the map form is never
// built. The bytes are untrusted: a stream past the decode limits, with
// out-of-range entries, or with a section whose keys do not ascend strictly
// is rejected with an error naming the section.
func Load(r io.Reader) (*Client, error) {
	f, err := atlas.DecodeFlat(r)
	if err != nil {
		return nil, err
	}
	return FromFlat(f), nil
}

// FetchAtlas joins the swarm for the given manifest via a tracker, fetches
// and verifies the atlas, and returns a ready client. This is the library's
// startup path in §5 ("Fetching the Atlas").
func FetchAtlas(ctx context.Context, trackerAddr string, m Manifest) (*Client, error) {
	data, err := swarm.Fetch(ctx, trackerAddr, m)
	if err != nil {
		return nil, fmt.Errorf("inano: fetching atlas: %w", err)
	}
	return Load(bytes.NewReader(data))
}

// publish makes next the engine every later query reads in cur's place.
// Unless next adopted cur's tree cache, one goroutine then rebuilds on next
// the trees that were resident in cur, hottest first, until the list is
// done or next is itself superseded (core.Engine.Warm); it holds the key
// list, not cur. Caller holds wmu.
func (c *Client) publish(cur, next *core.Engine) {
	if c.beforePublish != nil {
		c.beforePublish()
	}
	c.engine.Store(next)
	keys := next.WarmList(cur)
	if len(keys) == 0 {
		return
	}
	warm := func() { next.Warm(keys, func() bool { return c.engine.Load() != next }) }
	if c.startWarm != nil {
		c.startWarm(warm)
	} else {
		go warm()
	}
}

// ApplyDelta applies an encoded daily update, keeping the atlas current
// (§5, "Keeping Atlas Up-to-date"). The delta is merged straight into a
// new compiled atlas (atlas.Flat.Apply) beside the serving one and
// published with one atomic store: no query waits for it, and queries in
// flight keep the snapshot they started on. LastRoll reports what changed.
// A delta that moves nothing routes are computed from (a same-day push of
// corrections, say) leaves the warm prediction-tree cache in place; after
// any other, one goroutine rebuilds the trees that were resident (publish).
// A delta applies only to the exact atlas it was coded against, which it
// names: one coded against another — another day's, or the atlas it has
// already rolled this client past — is refused with an error that wraps
// atlas.ErrDeltaBase (atlas.ErrDeltaIndex for an index past a table), and
// the client keeps serving what it served.
func (c *Client) ApplyDelta(r io.Reader) error {
	d, err := atlas.DecodeDelta(r)
	if err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	cur := c.engine.Load()
	next, stats, err := c.apply(cur, d)
	if err != nil {
		return fmt.Errorf("inano: delta day %d->%d refused: %w", d.FromDay, d.ToDay, err)
	}
	// Stats first: whoever sees the new day also sees what the roll did.
	c.lastRoll.Store(&stats)
	c.publish(cur, next)
	return nil
}

// apply builds the engine that serves cur's atlas with d applied — the one
// way a client's atlas changes, whether d came off the wire or out of a
// traceroute merge. The caller holds wmu and publishes the result. When
// the stats show that nothing route computation reads has moved (no link,
// cluster, loss, 3-tuple or attachment change: corrections only), the new
// engine adopts cur's warm prediction-tree cache; otherwise it starts cold.
// The trees hold link-table indexes, which such a roll leaves as they were:
// with no link or cluster change, Apply lays the table out edge for edge.
// A delta Flat.Apply refuses leaves cur serving, and its error comes back.
func (c *Client) apply(cur *core.Engine, d *Delta) (*core.Engine, RollStats, error) {
	next, st, err := cur.Flat().Apply(d)
	if err != nil {
		return nil, RollStats{}, err
	}
	if st.LinksChanged()+st.ClustersAdded+st.LossSet+st.LossCleared+
		st.TuplesAdded+st.TuplesRemoved+st.PrefixesRehomed == 0 {
		return core.NewWithCache(next, c.opts, cur), st, nil
	}
	return core.NewFromFlat(next, c.opts), st, nil
}

// LastRoll reports what the most recently applied delta changed; ok is
// false when none has been applied yet. A traceroute merge is not a roll
// and leaves it as it was.
func (c *Client) LastRoll() (stats RollStats, ok bool) {
	if st := c.lastRoll.Load(); st != nil {
		return *st, true
	}
	return RollStats{}, false
}

// FetchDelta fetches an encoded delta from a swarm and applies it.
func (c *Client) FetchDelta(ctx context.Context, trackerAddr string, m Manifest) error {
	data, err := swarm.Fetch(ctx, trackerAddr, m)
	if err != nil {
		return fmt.Errorf("inano: fetching delta: %w", err)
	}
	return c.ApplyDelta(bytes.NewReader(data))
}

// Query predicts forward and reverse paths between hosts and composes
// end-to-end RTT and loss estimates, on the current engine: the one-line
// door for an application with two addresses. Every other question goes
// to a Snapshot.
func (c *Client) Query(src, dst IP) PathInfo {
	return c.engine.Load().Query(netsim.PrefixOf(src), netsim.PrefixOf(dst))
}

// PairReq is one entry of a batch: a (src, dst) prefix pair with an
// optional absolute deadline.
type PairReq = core.PairReq

// PairOf returns the batch entry for a pair of hosts: their /24 prefixes,
// no deadline.
func PairOf(src, dst IP) PairReq {
	return PairReq{Src: netsim.PrefixOf(src), Dst: netsim.PrefixOf(dst)}
}

// Snapshot is a pinned view of one engine + atlas version, and the one
// place a question is asked: every call on it answers from the same atlas
// day, even while deltas or traceroute merges swap new snapshots into the
// Client concurrently, so the answers and the metadata about them (Day)
// are mutually consistent — e.g. a serving daemon labelling each response
// with the day it was computed from. Taking one is an atomic load; it is
// cheap to take per question and as cheap to keep for many.
type Snapshot struct {
	e *core.Engine
}

// Snapshot pins the current engine and atlas.
func (c *Client) Snapshot() Snapshot { return Snapshot{e: c.engine.Load()} }

// Day returns the measurement day of the pinned atlas.
func (s Snapshot) Day() int { return s.e.Day() }

// AtlasStats summarizes the size of an atlas.
type AtlasStats struct {
	Day, Clusters, Links, Prefixes int
}

// AtlasStats reads the pinned atlas's day and sizes off its compiled form.
func (s Snapshot) AtlasStats() AtlasStats {
	f := s.e.Flat()
	return AtlasStats{Day: int(f.Day), Clusters: int(f.NumClusters), Links: f.NumEdges(), Prefixes: len(f.PrefixClKeys)}
}

// Prefixes iterates, in ascending order, over the prefixes the pinned
// atlas has an attachment cluster for — the ones a query can name.
func (s Snapshot) Prefixes() iter.Seq[Prefix] {
	return slices.Values(s.e.Flat().PrefixClKeys)
}

// OriginAS returns the BGP origin AS of a prefix in the pinned atlas (0
// when unknown).
func (s Snapshot) OriginAS(p Prefix) ASN { return s.e.Flat().OriginAS(p) }

// Query predicts forward and reverse paths from a host in src to a host
// in dst on the pinned snapshot and composes end-to-end RTT and loss
// estimates. When ctx ends before the answer is complete (a leg waiting
// on a prediction tree another caller is building, typically) it returns
// ctx's error and no answer.
func (s Snapshot) Query(ctx context.Context, src, dst Prefix) (PathInfo, error) {
	var info PathInfo
	if err := s.e.QueryCtx(ctx, &info, src, dst); err != nil {
		return PathInfo{}, err
	}
	return info, nil
}

// QueryReqs answers many independent (src, dst) queries in one batch on
// the pinned snapshot — per §5 the API accepts "batches of arbitrary
// sizes". Results align with reqs and are identical to calling Query for
// each pair. A pair whose Deadline passes before its prediction trees are
// ready is reported expired (expired[i] true, zero PathInfo) while the
// rest of the batch completes normally — partial results instead of an
// aborted batch. ctx cancellation aborts the whole batch with ctx.Err().
func (s Snapshot) QueryReqs(ctx context.Context, reqs []PairReq) ([]PathInfo, []bool, error) {
	return s.e.NewStreamBatch(false).Run(ctx, reqs)
}

// StreamBatch is a reusable windowed batch runner bound to one pinned
// snapshot: Run answers a window under the QueryReqs contract, reusing
// its buffers so steady-state windows allocate nothing (see
// core.StreamBatch). noASPaths skips AS-path derivation on every answer,
// for callers that never serialize them.
type StreamBatch = core.StreamBatch

// StreamBatch returns a windowed batch runner pinned to this snapshot.
func (s Snapshot) StreamBatch(noASPaths bool) *StreamBatch {
	return s.e.NewStreamBatch(noASPaths)
}

// AttachmentCluster returns the attachment cluster of a prefix in the
// pinned atlas — the identity feedback attribution and upstream
// observation ingest key on. ok is false when the atlas cannot place the
// prefix.
func (s Snapshot) AttachmentCluster(p Prefix) (int32, bool) {
	cl, ok := s.e.AttachmentCluster(p)
	return int32(cl), ok
}

// HopCluster places the /24 of a traceroute hop interface in the pinned
// atlas's cluster space: the interface-prefix table first (infrastructure
// /24s observed by the build), then the end-host attachment table. The
// upstream observation ingest clusterizes uploaded hop lists through it.
// ok is false when the atlas has never seen the prefix.
func (s Snapshot) HopCluster(p Prefix) (int32, bool) {
	cl, ok := s.e.HopCluster(p)
	return int32(cl), ok
}

// CacheStats reports the current engine's prediction-tree cache counters
// (hits, misses, Dijkstra builds, trees resident) — the observability hook
// behind inanod's /metrics and /debug/stats. Counters reset when a delta
// or traceroute merge swaps in an engine with a cold cache (one that
// changed only corrections keeps cache and counters); Warmed and WarmHits
// then say how the rebuild behind that swap is doing.
func (c *Client) CacheStats() core.CacheStats {
	return c.engine.Load().CacheStats()
}
