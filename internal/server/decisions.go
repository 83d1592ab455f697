package server

import (
	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/declog"
)

// Decision capture: the serve path's bridge into the decision-log stream.
// Capture happens after a request is fully answered-to-be (the outcome is
// known) and costs one bounded-buffer append per decision — declog.Logger
// never blocks on its sink, so a slow collector cannot slow serving. The
// engine benchmarks' 0 allocs/op contract is untouched: capture lives in
// the HTTP handlers, which allocate for JSON anyway, never in the engine.

// logAssociateDecisions appends one decision per post of a served
// /v1/associate batch — matched or not, so a replay sees the same
// denominator the live request did — as one declog.LogBatch, built in the
// request's scratch. assocs must be sorted by PostIndex ascending, which
// Engine.Associate guarantees.
func (s *Server) logAssociateDecisions(sc *wireScratch, gen uint64, eng *memes.Engine, posts []memes.Post, assocs []memes.Association) {
	if s.declog == nil {
		return
	}
	clusters := eng.Clusters()
	ds := sc.decisions[:0]
	ai := 0
	for i := range posts {
		d := declog.Decision{
			Endpoint:   "associate",
			Generation: gen,
			Post:       posts[i],
			ClusterID:  -1,
			Distance:   -1,
		}
		if ai < len(assocs) && assocs[ai].PostIndex == i {
			a := assocs[ai]
			ai++
			d.Matched = true
			d.ClusterID = a.ClusterID
			d.Distance = a.Distance
			d.Entry = clusters[a.ClusterID].EntryName()
		}
		ds = append(ds, d)
	}
	sc.decisions = ds
	s.declog.LogBatch(ds)
}

// logMatchDecision captures a single-hash lookup (/v1/match or
// /v1/match/image). The decision carries a synthetic post holding only the
// queried hash — there is no community or timestamp on a bare lookup, so
// replay skips these and regenerates tables from associate decisions.
func (s *Server) logMatchDecision(h memes.Hash, resp matchResponse) {
	if s.declog == nil {
		return
	}
	s.declog.Log(declog.Decision{
		Endpoint:   "match",
		Generation: resp.Generation,
		Post:       memes.Post{HasImage: true, Hash: uint64(h), TruthMeme: -1, TruthRoot: -1},
		Matched:    resp.Matched,
		ClusterID:  resp.ClusterID,
		Distance:   resp.Distance,
		Entry:      resp.Entry,
	})
}
