package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"github.com/memes-pipeline/memes/internal/analysis"
)

// Analysis serving: the paper's Section 5 influence estimation and the full
// memereport document, computed live over the hot-swappable engine. Both
// endpoints need a dataset-bound engine (memeserve binds the corpus via
// memes.WithDataset); without one they answer 503/analysis_disabled so a
// pure serving replica degrades cleanly instead of panicking.
//
// The served numbers are pinned bitwise against the offline path: the
// influence fold is deterministic for any worker count (see
// analysis.fitGroupCtx), and float64 values survive JSON round-trips
// exactly, so a client can diff /v1/influence output against an offline
// run of the same corpus and expect equality, not closeness.

// handleInfluence answers POST /v1/influence: Hawkes cross-community
// influence matrices for one meme group. The fits parallelize across memes
// and stop promptly when the request is cancelled or times out.
func (s *Server) handleInfluence(w http.ResponseWriter, r *http.Request) {
	var req influenceRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		s.writeError(w, http.StatusBadRequest, reasonBadRequest, "decoding request: "+err.Error())
		return
	}
	group := analysis.AllMemes
	if req.Group != "" {
		g, err := analysis.ParseMemeGroup(req.Group)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, reasonBadRequest, err.Error())
			return
		}
		group = g
	}
	cfg := analysis.DefaultInfluenceConfig()
	if req.Omega > 0 {
		cfg.Omega = req.Omega
	}
	if req.MaxIter > 0 {
		cfg.MaxIter = req.MaxIter
	}
	if req.MinEventsPerFit > 0 {
		cfg.MinEventsPerFit = req.MinEventsPerFit
	}

	eng, gen := s.hot.Pin()
	res, err := eng.TryResult()
	if err != nil {
		s.writeError(w, http.StatusServiceUnavailable, reasonAnalysisDisabled, "influence needs a dataset-bound engine: "+err.Error())
		return
	}
	inf, err := analysis.EstimateInfluenceCtx(r.Context(), res, group, cfg)
	if err != nil {
		s.writeQueryError(w, "influence", err)
		return
	}
	s.writeJSON(w, http.StatusOK, influenceResponse{
		Group:         inf.Group.String(),
		Generation:    gen,
		Communities:   inf.Communities,
		Events:        inf.Events,
		Raw:           inf.Raw,
		Normalized:    inf.Normalized,
		TotalExternal: inf.TotalExternal,
		Total:         inf.Total,
	})
}

// handleReport answers GET /v1/report: the full memereport document over
// the live engine. The rendered document is cached per hot-swap generation
// (it is deterministic for a resident artifact), so only the first request
// after a reload pays the render; concurrent first requests may render
// twice, both producing identical documents.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	eng, gen := s.hot.Pin()
	res, err := eng.TryResult()
	if err != nil {
		s.writeError(w, http.StatusServiceUnavailable, reasonAnalysisDisabled, "report needs a dataset-bound engine: "+err.Error())
		return
	}

	s.reportMu.Lock()
	if s.reportDoc != nil && s.reportGen == gen {
		doc := s.reportDoc
		s.reportMu.Unlock()
		s.writeJSON(w, http.StatusOK, doc)
		return
	}
	s.reportMu.Unlock()

	sections, err := analysis.NewReport(res).SectionsCtx(r.Context())
	if err != nil {
		s.writeQueryError(w, "report", err)
		return
	}
	doc := &reportResponse{
		Generation:      gen,
		SnapshotVersion: eng.SnapshotVersion(),
		Sections:        make([]reportSectionJSON, 0, len(sections)),
	}
	for _, sec := range sections {
		doc.Sections = append(doc.Sections, reportSectionJSON{Title: sec.Title, Body: sec.Body})
	}

	s.reportMu.Lock()
	s.reportGen, s.reportDoc = gen, doc
	s.reportMu.Unlock()
	s.writeJSON(w, http.StatusOK, doc)
}
