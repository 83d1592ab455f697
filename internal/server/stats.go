package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"github.com/memes-pipeline/memes/internal/cli"
)

// counters is the server's always-on operational accounting besides the
// per-endpoint request counters, maintained with atomics so the hot serve
// path never takes a lock for bookkeeping.
type counters struct {
	errors atomic.Int64 // requests answered with a non-2xx status

	matched atomic.Int64 // single-hash lookups that found a cluster
	missed  atomic.Int64 // single-hash lookups outside the threshold

	associatedPosts atomic.Int64 // posts received by /v1/associate
	associations    atomic.Int64 // associations returned by /v1/associate

	reloads atomic.Int64 // successful hot swaps (admin endpoint or SIGHUP)

	shed     atomic.Int64 // requests refused by admission control (503)
	timeouts atomic.Int64 // requests answered 504 after their deadline
	panics   atomic.Int64 // handler panics contained by recovery
}

// statsDoc snapshots everything the server reports about itself. It is the
// one reader of the counters: /v1/statsz writes the snapshot as is, and
// /v1/metrics renders the same snapshot through its families table, so the
// two views agree by construction. The document types live in wire.go.
func (s *Server) statsDoc() StatsDoc {
	eng, gen, publishedAt := s.hot.Published()
	d := StatsDoc{
		UptimeMS:          float64(time.Since(s.started)) / float64(time.Millisecond),
		Generation:        gen,
		LoadedAt:          publishedAt.UTC().Format(time.RFC3339Nano),
		Clusters:          len(eng.Clusters()),
		AnnotatedClusters: annotatedCount(eng),
		SnapshotVersion:   eng.SnapshotVersion(),
		Reloads:           s.stats.reloads.Load(),
		Requests: RequestStats{
			Errors: s.stats.errors.Load(),
		},
		Match: MatchStats{
			Matched: s.stats.matched.Load(),
			Missed:  s.stats.missed.Load(),
		},
		Associate: AssocStats{
			Posts:        s.stats.associatedPosts.Load(),
			Associations: s.stats.associations.Load(),
		},
		Overload: OverloadStats{
			Shed:        s.stats.shed.Load(),
			Timeouts:    s.stats.timeouts.Load(),
			Panics:      s.stats.panics.Load(),
			InFlight:    len(s.sem),
			MaxInFlight: cap(s.sem),
		},
		BuildStats: cli.StatsDoc(eng.BuildStats()),
	}
	for i := range s.endpoints {
		if ep := &s.endpoints[i]; ep.count != nil {
			*ep.count(&d.Requests) = ep.requests.Load()
		}
	}
	if s.declog != nil {
		d.DecisionLog = DecLogStats{Enabled: true, Stats: s.declog.Stats()}
	}
	if s.ingestor != nil {
		d.Ingest = IngestStats{Enabled: true, Stats: s.ingestor.Stats()}
		d.Degraded = d.Ingest.Degraded
	}
	return d
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.statsDoc())
}
