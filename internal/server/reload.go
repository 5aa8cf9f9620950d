package server

import (
	"context"
	"os"
	"time"

	"inano/internal/swarm"
)

// Hot reload: the daemon keeps its atlas current while serving. Both
// watchers poll cheaply (one stat per interval) and apply updates through
// inano.Client.ApplyDelta, which merges the delta into a new compiled
// atlas on the side and publishes it with one atomic store: no request
// waits for a reload, queries and batch streams in flight keep reading
// their pinned snapshot, and later requests see the new day.

// ApplyDeltaFile applies one encoded delta file immediately, updating the
// reload metrics. A delta whose FromDay doesn't match the serving atlas is
// rejected by the client and counted as a reload error.
func (s *Server) ApplyDeltaFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		s.reloadErrors.Inc()
		return err
	}
	defer f.Close()
	resident := s.c.CacheStats().Len
	if err := s.c.ApplyDelta(f); err != nil {
		s.reloadErrors.Inc()
		return err
	}
	s.noteReload("applied delta "+path, resident)
	return nil
}

// noteReload counts a successful reload and logs what the roll changed.
// resident is how many trees the cache held going in: the client rebuilds
// them behind the publish (none if only corrections moved and it kept them).
func (s *Server) noteReload(what string, resident int) {
	s.reloads.Inc()
	s.lastReload.Set(time.Now().Unix())
	st, _ := s.c.LastRoll()
	s.cfg.Logf("inanod: %s; serving day %d (merged in %v: links +%d -%d ~%d, loss +%d -%d, tuples +%d -%d, %d prefixes re-homed, %d clusters added, local corrections %d halved %d dropped); rebuilding up to %d resident trees",
		what, st.ToDay, st.Duration.Round(time.Microsecond),
		st.LinksAdded, st.LinksRemoved, st.LinksRetagged, st.LossSet, st.LossCleared,
		st.TuplesAdded, st.TuplesRemoved, st.PrefixesRehomed, st.ClustersAdded,
		st.LocalDecayed, st.LocalDropped, resident)
}

// fileStamp identifies a file version cheaply.
type fileStamp struct {
	mod  time.Time
	size int64
}

func stampOf(path string) (fileStamp, bool) {
	fi, err := os.Stat(path)
	if err != nil {
		return fileStamp{}, false
	}
	return fileStamp{mod: fi.ModTime(), size: fi.Size()}, true
}

// watchFile calls changed once if path exists now and again whenever a poll,
// one stat every interval, finds it with another size or modification
// time. It blocks until ctx is done.
func watchFile(ctx context.Context, path string, interval time.Duration, changed func()) {
	var last fileStamp
	var seen bool
	check := func() {
		st, ok := stampOf(path)
		if !ok || (seen && st == last) {
			return
		}
		last, seen = st, true
		changed()
	}
	check()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			check()
		}
	}
}

// WatchDeltaFile polls path every interval and applies the delta whenever
// the file appears or changes. It blocks until ctx is done; run it in a
// goroutine alongside the HTTP server. A file present at start is applied
// immediately. Failed applies are logged and counted, never fatal: the
// daemon keeps serving its current snapshot.
func (s *Server) WatchDeltaFile(ctx context.Context, path string, interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	watchFile(ctx, path, interval, func() {
		if err := s.ApplyDeltaFile(path); err != nil {
			s.cfg.Logf("inanod: delta %s not applied: %v", path, err)
		}
	})
}

// WatchManifest polls a swarm manifest file (as written by inano-seed for a
// delta) and, whenever the manifest changes, fetches the delta from the
// swarm and applies it — the tracker-polling reload path of §5: each day
// the build server seeds a new delta and publishes its manifest; every
// serving peer picks it up from the swarm, not from the server. It blocks
// until ctx is done.
func (s *Server) WatchManifest(ctx context.Context, path string, interval time.Duration) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	watchFile(ctx, path, interval, func() {
		addr, m, err := swarm.ReadManifestFile(path)
		if err != nil {
			s.reloadErrors.Inc()
			s.cfg.Logf("inanod: %v", err)
			return
		}
		fctx, cancel := context.WithTimeout(ctx, interval)
		defer cancel()
		resident := s.c.CacheStats().Len
		if err := s.c.FetchDelta(fctx, addr, m); err != nil {
			s.reloadErrors.Inc()
			s.cfg.Logf("inanod: swarm delta %s not applied: %v", m.Name, err)
			return
		}
		s.noteReload("fetched+applied swarm delta "+m.Name, resident)
	})
}
