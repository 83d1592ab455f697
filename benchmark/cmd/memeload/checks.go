//go:build linux

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/server"
)

// serverView is what the server says about itself after a run: its
// /v1/statsz document and the per-endpoint latency histograms of
// /v1/metrics.
type serverView struct {
	stats server.StatsDoc
	count map[string]float64 // histogram _count per endpoint label
	sum   map[string]float64 // histogram _sum (seconds) per endpoint label
}

func (e *serveEnv) view() (*serverView, error) {
	v := &serverView{count: map[string]float64{}, sum: map[string]float64{}}
	if err := getJSON(e.srv.addr, "/v1/statsz", &v.stats); err != nil {
		return nil, err
	}
	status, body, err := get(e.srv.addr, "/v1/metrics")
	if err != nil || status != 200 {
		return nil, fmt.Errorf("GET /v1/metrics: status %d: %v", status, err)
	}
	// memes_request_duration_seconds_count{endpoint="match"} 123
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "memes_request_duration_seconds_")
		if !ok {
			continue
		}
		series, value, _ := strings.Cut(line, `"} `)
		kind, label, ok := strings.Cut(series, `{endpoint="`)
		into := map[string]map[string]float64{"count": v.count, "sum": v.sum}[kind]
		if !ok || into == nil {
			continue
		}
		if into[label], err = strconv.ParseFloat(value, 64); err != nil {
			return nil, fmt.Errorf("/v1/metrics: %q: %w", sc.Text(), err)
		}
	}
	return v, sc.Err()
}

// crossCheck holds the client's request counts against the server's own
// outputs: the /v1/statsz request and error counters and the /v1/metrics
// histogram counts must all equal what the client sent, warm-up included.
// It also lifts the counters later issues cite into the table.
func (e *serveEnv) crossCheck(r *result) error {
	v, err := e.view()
	if err != nil {
		return err
	}
	req := v.stats.Requests
	for _, c := range []struct {
		endpoint string
		statsz   int64
	}{{"match", req.Match}, {"associate", req.Associate}, {"ingest", req.Ingest}} {
		sent := e.sentTo[c.endpoint]
		if c.statsz != int64(sent) {
			r.problemf("statsz counts %d %s requests, the client sent %d", c.statsz, c.endpoint, sent)
		}
		if got := int(v.count[c.endpoint]); got != sent {
			r.problemf("/v1/metrics histogram counts %d %s requests, the client sent %d", got, c.endpoint, sent)
		}
	}
	if req.Errors != int64(e.refused) {
		r.problemf("statsz counts %d error responses, the client saw %d", req.Errors, e.refused)
	}
	if in := v.stats.Ingest; in.Enabled {
		if acked := uint64(e.sentTo["ingest"]-e.refused) * ingestBatch; in.Seq != acked {
			r.problemf("statsz ingest seq %d, the client holds receipts for %d posts", in.Seq, acked)
		}
		r.note("ingest.reclusters", float64(in.Reclusters), "count")
		r.note("ingest.compactions", float64(in.Compactions), "count")
		r.note("ingest.rejected_share", share(float64(in.Rejected), float64(in.Rejected+in.Ingested)), "share")
	}
	if b := v.stats.Batcher; b.Batches > 0 {
		r.note("server.batch_size_mean", float64(b.BatchedRequests)/float64(b.Batches), "count")
	}
	r.note("server.shed", float64(v.stats.Overload.Shed), "count")
	if d := v.stats.DecisionLog; d.Enabled {
		r.note("declog.dropped_share", share(float64(d.Dropped), float64(d.Dropped+d.Logged)), "share")
	}
	return nil
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// clusterRow mirrors one element of the /v1/clusters answer.
type clusterRow struct {
	ID             int    `json:"id"`
	Community      string `json:"community"`
	Entry          string `json:"entry"`
	Images         int    `json:"images"`
	DistinctHashes int    `json:"distinct_hashes"`
	MedoidHash     string `json:"medoid_hash"`
	Annotated      bool   `json:"annotated"`
	Racist         bool   `json:"racist"`
	Political      bool   `json:"political"`
}

// clusterRows renders an engine's clusters the way /v1/clusters does.
func clusterRows(eng *memes.Engine) []clusterRow {
	clusters := eng.Clusters()
	out := make([]clusterRow, 0, len(clusters))
	for i := range clusters {
		ci := &clusters[i]
		out = append(out, clusterRow{ci.ID, ci.Community.String(), ci.EntryName(), ci.Images,
			ci.DistinctHashes, ci.MedoidHash.String(), ci.Annotated(), ci.Racist, ci.Political})
	}
	return out
}

// checkDurability proves acknowledged writes survive: a fresh memeserve on
// the stopped server's delta dir must report the same journal position and
// serve exactly the clusters of an engine built in process over the base
// corpus plus every acknowledged post.
func (e *serveEnv) checkDurability(r *result, final *memes.Engine, posts int) error {
	start := time.Now()
	srv, err := startServer(e.bin, filepath.Join(e.dir, "memeserve-restart.log"), e.args...)
	if err != nil {
		return err
	}
	e.srv = srv
	r.note("memeserve.replay_boot_ms", float64(time.Since(start))/1e6, "ms")
	var st server.StatsDoc
	if err := getJSON(srv.addr, "/v1/statsz", &st); err != nil {
		return err
	}
	if st.Ingest.Seq != uint64(posts) {
		r.problemf("restart: journal replays to seq %d, %d posts were acknowledged", st.Ingest.Seq, posts)
	}
	var doc struct {
		Clusters []clusterRow `json:"clusters"`
	}
	if err := getJSON(srv.addr, "/v1/clusters", &doc); err != nil {
		return err
	}
	if want := clusterRows(final); !reflect.DeepEqual(doc.Clusters, want) {
		r.problemf("restart: /v1/clusters (%d clusters) differs from the engine built over base+%d posts (%d clusters)",
			len(doc.Clusters), posts, len(want))
	}
	if _, err := srv.stop(); err != nil {
		return err
	}
	return os.RemoveAll(e.dir)
}
