//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"sync/atomic"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/benchmark/loadgen"
)

// Every answer the benchmark times is checked against an engine built in
// process over the same corpus. Decoding JSON for each of 30,000 answers a
// second would cost the generator more CPU than the server spends producing
// them, so a checker decodes an answer once, and afterwards accepts the
// exact bytes it has already verified for that request with a memcmp. The
// verified bytes are learned from the server, never predicted: a change to
// the server's encoding costs one decode per pool entry, not a slower
// generator.

// memo remembers, per pool entry, the last answer bytes that passed the
// full check.
type memo []atomic.Pointer[[]byte]

func (m memo) check(key int, body []byte, full func() bool) bool {
	if seen := m[key].Load(); seen != nil && bytes.Equal(*seen, body) {
		return true
	}
	if !full() {
		return false
	}
	verified := append([]byte(nil), body...)
	m[key].Store(&verified)
	return true
}

// The response shapes of internal/server/wire.go, which keeps them
// unexported; only the fields the checks read.
type matchAnswer struct {
	Matched    bool   `json:"matched"`
	ClusterID  int    `json:"cluster_id"`
	Distance   int    `json:"distance"`
	Entry      string `json:"entry"`
	Community  string `json:"community"`
	Hash       string `json:"hash"`
	Generation uint64 `json:"generation"`
}

type associateAnswer struct {
	Posts        int                 `json:"posts"`
	Matched      int                 `json:"matched"`
	Generation   uint64              `json:"generation"`
	Associations []associationAnswer `json:"associations"`
}

type associationAnswer struct {
	PostIndex int    `json:"post_index"`
	ClusterID int    `json:"cluster_id"`
	Distance  int    `json:"distance"`
	Entry     string `json:"entry"`
}

type ingestAnswer struct {
	Accepted   int    `json:"accepted"`
	Seq        uint64 `json:"seq"`
	Generation uint64 `json:"generation"`
}

type postsBody struct {
	Posts []memes.Post `json:"posts"`
}

// matchPool is a set of /v1/match requests with the oracle's answer to each.
type matchPool struct {
	wire   [][]byte
	body   [][]byte
	hashes []memes.Hash
	want   []matchAnswer // Generation unset
	seen   memo
	// later, when set, is the engine the server converges on while ingest
	// re-clusters under the lookups (ingest_mixed). Generations after the
	// first serve some prefix of the feed that the client cannot name, so
	// their answers are held to the fields that survive a re-cluster: the
	// hash echo, and matched+entry agreeing with the base or the final
	// engine. Cluster ids and distances are renumbered by a re-cluster.
	later []matchAnswer
}

// matchPoolSize is the number of distinct lookups a run cycles through: the
// server caches nothing per hash, so the pool only has to be large enough to
// average the index probe over hits and misses.
const matchPoolSize = 4096

func newMatchPool(c *corpus, rng *rand.Rand) (*matchPool, error) {
	posts := c.samplePosts(rng, matchPoolSize)
	p := &matchPool{seen: make(memo, len(posts))}
	for i := range posts {
		h := memes.Hash(posts[i].Hash)
		body, err := json.Marshal(map[string]string{"hash": h.String()})
		if err != nil {
			return nil, err
		}
		p.hashes = append(p.hashes, h)
		p.body = append(p.body, body)
		p.wire = append(p.wire, loadgen.EncodeRequest("POST", "/v1/match", body))
	}
	var err error
	p.want, err = matchAnswers(c.eng, p.hashes)
	return p, err
}

// matchAnswers asks an engine for the answer the server must give to each
// hash.
func matchAnswers(eng *memes.Engine, hashes []memes.Hash) ([]matchAnswer, error) {
	out := make([]matchAnswer, len(hashes))
	clusters := eng.Clusters()
	for i, h := range hashes {
		m, ok, err := eng.Match(context.Background(), h)
		if err != nil {
			return nil, err
		}
		out[i] = matchAnswer{ClusterID: -1, Distance: -1, Hash: h.String()}
		if ok {
			ci := &clusters[m.ClusterID]
			out[i] = matchAnswer{Matched: true, ClusterID: m.ClusterID, Distance: m.Distance,
				Entry: ci.EntryName(), Community: ci.Community.String(), Hash: h.String()}
		}
	}
	return out, nil
}

// hitShare is the fraction of the pool the oracle matches.
func (p *matchPool) hitShare() float64 {
	hits := 0
	for i := range p.want {
		if p.want[i].Matched {
			hits++
		}
	}
	return float64(hits) / float64(len(p.want))
}

func (p *matchPool) check(key, _ int, body []byte) bool {
	return p.seen.check(key, body, func() bool {
		var got matchAnswer
		if json.Unmarshal(body, &got) != nil {
			return false
		}
		gen := got.Generation
		got.Generation = 0
		if gen == 1 || p.later == nil {
			return gen == 1 && got == p.want[key]
		}
		stable := func(w matchAnswer) bool {
			return got.Hash == w.Hash && got.Matched == w.Matched && got.Entry == w.Entry
		}
		return stable(p.want[key]) || stable(p.later[key])
	})
}

// associatePool is a set of /v1/associate requests with the oracle's answer
// to each.
type associatePool struct {
	wire  [][]byte
	body  [][]byte
	posts [][]memes.Post
	want  [][]memes.Association
	names []string // entry name per cluster id
	seen  memo
}

const (
	// associateBatch is the posts per /v1/associate body (about 159 KB).
	associateBatch = 1024
	// associatePoolSize is the number of distinct bodies a run cycles through.
	associatePoolSize = 32
)

func newAssociatePool(c *corpus, rng *rand.Rand) (*associatePool, error) {
	p := &associatePool{seen: make(memo, associatePoolSize)}
	for _, ci := range c.eng.Clusters() {
		p.names = append(p.names, ci.EntryName())
	}
	for i := 0; i < associatePoolSize; i++ {
		posts := c.samplePosts(rng, associateBatch)
		body, err := json.Marshal(postsBody{posts})
		if err != nil {
			return nil, err
		}
		want, err := c.eng.Associate(context.Background(), posts)
		if err != nil {
			return nil, err
		}
		p.posts = append(p.posts, posts)
		p.want = append(p.want, want)
		p.body = append(p.body, body)
		p.wire = append(p.wire, loadgen.EncodeRequest("POST", "/v1/associate", body))
	}
	return p, nil
}

func (p *associatePool) check(key, _ int, body []byte) bool {
	return p.seen.check(key, body, func() bool {
		var got associateAnswer
		if json.Unmarshal(body, &got) != nil {
			return false
		}
		want := p.want[key]
		if got.Generation != 1 || got.Posts != len(p.posts[key]) ||
			got.Matched != len(want) || len(got.Associations) != len(want) {
			return false
		}
		for i, a := range got.Associations {
			w := want[i]
			if a.PostIndex != w.PostIndex || a.ClusterID != w.ClusterID ||
				a.Distance != w.Distance || a.Entry != p.names[w.ClusterID] {
				return false
			}
		}
		return true
	})
}

// ingestFeed turns the stream corpus's held-back posts into /v1/ingest
// batches in timestamp order.
type ingestFeed struct {
	wire  [][]byte
	body  [][]byte
	posts [][]memes.Post
}

// ingestBatch is the posts per /v1/ingest request.
const ingestBatch = 8

func newIngestFeed(posts []memes.Post) (*ingestFeed, error) {
	f := &ingestFeed{}
	for at := 0; at+ingestBatch <= len(posts); at += ingestBatch {
		body, err := json.Marshal(postsBody{posts[at : at+ingestBatch]})
		if err != nil {
			return nil, err
		}
		f.posts = append(f.posts, posts[at:at+ingestBatch])
		f.body = append(f.body, body)
		f.wire = append(f.wire, loadgen.EncodeRequest("POST", "/v1/ingest", body))
	}
	return f, nil
}

// check holds an ingest receipt to the one thing the client can know: the
// whole batch was accepted, and the journal position is exactly the posts
// acknowledged so far (batches leave one connection in order, so the i-th
// receipt must read (i+1) batches).
func (f *ingestFeed) check(key, _ int, body []byte) bool {
	var got ingestAnswer
	if json.Unmarshal(body, &got) != nil {
		return false
	}
	return got.Accepted == ingestBatch && got.Seq == uint64(key+1)*ingestBatch
}
