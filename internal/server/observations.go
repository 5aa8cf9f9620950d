package server

import (
	"context"
	"net/http"
	"time"

	inano "inano"
	"inano/internal/api"
	"inano/internal/feedback"
	"inano/internal/netsim"
)

// Upstream observation ingest: the build-server half of the paper's
// bidirectional §5 loop. Clients POST their corrective observations
// (measured vs predicted RTT per destination, NDJSON) to
// /v1/observations; the daemon validates them against the serving atlas,
// attributes each report to the connecting peer's source attachment
// cluster, and feeds a feedback.Aggregator whose periodic snapshots the
// build pipeline folds into the next daily delta
// (atlas.BuildDeltaWithObservations). The endpoint is enabled by setting
// Config.Aggregator (inanod -aggregate); without one it answers 501.

// maxObservationBody caps one /v1/observations request body: 512 full-size
// observation lines is far beyond any honest corrective budget, and small
// enough that a hostile stream cannot hold the handler's memory hostage.
const maxObservationBody = 512 * feedback.MaxObservationLineBytes

// handleObservations ingests an NDJSON upstream-observation report: one
// {"src","dst","rtt_ms","predicted_ms","hops":[...]} line per corrective
// measurement (see feedback.ParseObservationReport for the hardened
// contract). Ingestion is token-bucket rate-limited per connecting peer.
// Each accepted observation is validated against the serving atlas: the
// destination must have an attachment cluster, the reporter must resolve
// to one (see reporterCluster — the connecting peer's cluster when the
// atlas can place it, so claimed addresses buy no extra votes), and the
// residual is computed against the *server's own* prediction for the
// pair, so a stale or lying predicted_ms cannot skew the aggregate.
func (s *Server) handleObservations(w http.ResponseWriter, r *http.Request) error {
	var off *api.Refusal
	if s.cfg.Aggregator == nil {
		off = api.Refuse(http.StatusNotImplemented, "observation ingest not enabled on this daemon")
	}
	rp, rf := api.ReadReport(w, r, off, maxObservationBody, feedback.ParseObservationReport)
	if rf != nil {
		return rf.Write(w)
	}
	return serveReport(s, w, r, s.obsLimiter, rp, func(ctx context.Context, granted []feedback.UpstreamObservation, limited int) any {
		// One pinned snapshot scores and labels the whole report: a hot
		// reload mid-report cannot mix residuals measured against different
		// atlas days into one aggregate entry.
		snap := s.c.Snapshot()
		resp := feedback.ObservationsSummary{RateLimited: limited, Error: rp.Err, Day: snap.Day()}
		for i := range granted {
			res, err := s.ingestObservation(ctx, r, snap, &granted[i])
			if err != nil {
				resp.Error = err.Error()
				break
			}
			if res.pathRejected {
				resp.PathsRejected++
			}
			if res.path {
				resp.Paths++
			}
			if !res.path && !res.residual {
				resp.Unknown++
				continue
			}
			resp.Accepted++
		}
		s.obsAccepted.Add(uint64(resp.Accepted))
		s.obsPaths.Add(uint64(resp.Paths))
		s.obsPathRejects.Add(uint64(resp.PathsRejected))
		s.obsUnknown.Add(uint64(resp.Unknown))
		s.obsRateLimited.Add(uint64(resp.RateLimited))
		return resp
	})
}

// ingestResult reports what one observation contributed to the aggregate.
type ingestResult struct {
	// residual: the scalar residual was recorded; path: the clusterized
	// hop tail was recorded; pathRejected: the hop list was present but
	// refused (unmappable or looping).
	residual, path, pathRejected bool
}

// ingestObservation validates one observation against the serving atlas
// and records its two independent contributions: the scalar RTT residual
// (which needs a served prediction for the pair) and the clusterized hop
// tail (which needs only mappable hops — the whole point is destinations
// the atlas cannot yet predict). A zero result means the atlas could
// place neither: unknown source, or a destination with neither a served
// prediction nor a usable hop tail.
func (s *Server) ingestObservation(ctx context.Context, r *http.Request, snap inano.Snapshot, o *feedback.UpstreamObservation) (ingestResult, error) {
	var res ingestResult
	srcP, dstP := netsim.PrefixOf(o.Src), netsim.PrefixOf(o.Dst)
	srcCl, ok := s.reporterCluster(r, snap, srcP)
	if !ok {
		return res, nil
	}

	// Structural contribution: clusterize the hop list against the
	// serving atlas (hop /24 -> attachment cluster) and store the
	// destination-side tail under this reporter's identity for agreement
	// voting. Unmappable or looping hop lists are rejected wholesale.
	if len(o.Hops) >= 2 {
		path, linkMS, perr := feedback.ClusterizeHops(o.Hops, dstP, snap.HopCluster)
		switch {
		case perr != nil:
			res.pathRejected = true
		case len(path) >= 2:
			s.cfg.Aggregator.RecordPath(srcCl, dstP, path, linkMS)
			res.path = true
		}
	}

	// Scalar contribution: the residual against the server's own served
	// prediction. Requires a placeable destination and a prediction (the
	// tree build for a cold destination is bounded by the request
	// deadline) plus a claimed predicted_ms, which marks the observation
	// as corrective rather than structure-only.
	if o.PredictedMS > 0 {
		if _, ok := snap.AttachmentCluster(dstP); ok {
			info, err := snap.Query(ctx, srcP, dstP)
			if err != nil {
				return res, err
			}
			if info.Found {
				s.cfg.Aggregator.Record(srcCl, dstP, o.RTTMS-info.RTTMS)
				res.residual = true
			}
		}
	}
	return res, nil
}

// reporterCluster resolves the reporter's identity in the aggregate: the
// attachment cluster of the *connecting peer* whenever the serving atlas
// can place it — a reporter cannot claim its way into other networks'
// votes by rotating the report's src field. Only when the connection
// address is meaningless to the atlas (labs, NATed deployments) does the
// claimed source's cluster stand in; the per-connection rate limit still
// bounds how fast such a reporter can touch slots. The claimed src always
// drives the prediction pair the residual is scored against.
func (s *Server) reporterCluster(r *http.Request, snap inano.Snapshot, claimed netsim.Prefix) (int32, bool) {
	if ip, err := netsim.ParseIPv4(sourceKey(r)); err == nil {
		if cl, ok := snap.AttachmentCluster(netsim.PrefixOf(ip)); ok {
			return cl, true
		}
	}
	return snap.AttachmentCluster(claimed)
}

// RunObservationSnapshots periodically cuts the aggregator's snapshot to
// path (atomically), where the build pipeline picks it up for the next
// delta (inano-build -observations). It blocks until ctx is done, writing
// one final snapshot on shutdown so the freshest aggregate survives a
// restart. Run it in a goroutine alongside the HTTP server.
func (s *Server) RunObservationSnapshots(ctx context.Context, path string, interval time.Duration) {
	if s.cfg.Aggregator == nil {
		return
	}
	if interval <= 0 {
		interval = time.Minute
	}
	write := func() {
		snap := s.cfg.Aggregator.Snapshot(s.c.Snapshot().Day())
		if err := feedback.SaveSnapshot(path, snap); err != nil {
			s.cfg.Logf("inanod: observation snapshot %s: %v", path, err)
			return
		}
		s.obsSnapshots.Inc()
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			write()
			return
		case <-t.C:
			write()
		}
	}
}
