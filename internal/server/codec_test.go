package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/declog"
)

// checkParsePosts is the contract of the fast path: it declines, or it
// produces exactly what json.Unmarshal produces from the same bytes.
func checkParsePosts(t *testing.T, parser *dataset.PostParser, body []byte) (accepted bool) {
	t.Helper()
	got, ok := parsePosts(parser, body, make([]memes.Post, 0, 4))
	if !ok {
		return false
	}
	var want postsRequest
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("parsePosts accepted %q, json.Unmarshal refuses it: %v", body, err)
	}
	if len(got) != len(want.Posts) || (len(got) > 0 && !reflect.DeepEqual(got, want.Posts)) {
		t.Fatalf("parsePosts(%q):\n got %+v\nwant %+v", body, got, want.Posts)
	}
	return true
}

// Bodies around every edge of the canonical shape: those the fast path takes,
// and those it must hand back to encoding/json.
var (
	acceptedSeeds = []string{
		`{"posts":[]}`,
		`{"posts":[{}]}`,
		`{"posts":[{"id":1,"community":4,"subreddit":"The_Donald","timestamp":"2016-07-01T12:30:15.5Z","has_image":true,"phash":18446744073709551615,"score":-17,"truth_meme":-1,"truth_root":2}]}` + "\n",
		`{"posts":[{"id":1,"community":0,"timestamp":"2016-07-01T00:00:00Z","has_image":false,"truth_meme":0,"truth_root":0},{"id":2,"community":1,"timestamp":"0000-01-01T00:00:00Z","has_image":true,"phash":1,"truth_meme":3,"truth_root":4}]}`,
		`{"posts":[{"id":-9223372036854775808,"score":` + strconv.Itoa(math.MaxInt) + `}]}`,
		`{"posts":[{"id":-0}]}`,
		`{"posts":[{"timestamp":"2016-07-01T02:00:00+02:00"}]}`,
	}
	declinedSeeds = []string{
		// Valid JSON outside the canonical shape.
		`{"posts":null}`, `{}`, `{"posts":[],"extra":1}`, ` {"posts":[]}`, `{"posts": []}`, `{"posts":[ ]}`,
		`{"POSTS":[{"id":1}]}`, `{"posts":[{"ID":1}]}`,
		`{"posts":[{"community":1,"id":2}]}`,
		`{"posts":[{"id":1,"id":2}]}`,
		`{"posts":[{"id":1}],"posts":[{"id":2}]}`,
		`{"posts":[{"subreddit":"caf\u00e9"}]}`, `{"posts":[{"subreddit":"café"}]}`, `{"posts":[{"subreddit":"a\/b"}]}`,
		`{"posts":[{"id":1e2}]}`, `{"posts":[{"id":1.0}]}`, `{"posts":[{"id":null}]}`, `{"posts":[null]}`,
		// Invalid JSON, or valid JSON encoding/json refuses.
		`{"posts":[{"id":9223372036854775808}]}`, `{"posts":[{"phash":-1}]}`, `{"posts":[{"phash":18446744073709551616}]}`,
		`{"posts":[{"id":99999999999999999999999999999999999999}]}`,
		`{"posts":[]}garbage`, `{"posts":[]}{"posts":[]}`, `{"posts":[{"id":1}]}]`,
		`{"posts":[{"id":1},]}`, `{"posts":[{"id":1}`, `{"posts":[{"id":1}]`, `{"posts":[{"id":`, `{"posts":`, `{"posts":[`, `{`, ``,
		`{"posts":[{"timestamp":"2016-02-30T00:00:00Z"}]}`, `{"posts":[{"has_image":yes}]}`, `{"posts":[{"subreddit":"open]}`,
	}
)

// FuzzParsePosts: declined, or reflect.DeepEqual to json.Unmarshal of the
// same bytes; never a panic. A parser shared across inputs keeps the intern
// table in play.
func FuzzParsePosts(f *testing.F) {
	for _, s := range append(acceptedSeeds, declinedSeeds...) {
		f.Add([]byte(s))
	}
	ds, err := memes.GenerateDataset(memes.SmallDatasetConfig())
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{1, 3, 64} {
		body, err := json.Marshal(postsRequest{Posts: ds.Posts[:n]})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)/2]) // truncated
	}
	var parser dataset.PostParser
	f.Fuzz(func(t *testing.T, body []byte) {
		checkParsePosts(t, &parser, body)
	})
}

// TestParsePostsAcceptsCanonical: the fast path must actually take what
// json.Marshal emits — a decline is correct but is the regression this PR
// exists to prevent — and must take nothing encoding/json refuses.
func TestParsePostsAcceptsCanonical(t *testing.T) {
	ds, err := memes.GenerateDataset(memes.SmallDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	var parser dataset.PostParser
	for _, n := range []int{0, 1, 2, 1024, len(ds.Posts)} {
		body, err := json.Marshal(postsRequest{Posts: ds.Posts[:n]})
		if err != nil {
			t.Fatal(err)
		}
		for _, tail := range []string{"", "\n", " \t\r\n"} {
			if !checkParsePosts(t, &parser, append(body[:len(body):len(body)], tail...)) {
				t.Fatalf("parsePosts declined the canonical body of %d posts with tail %q", n, tail)
			}
		}
	}
	for _, s := range acceptedSeeds {
		if !checkParsePosts(t, &parser, []byte(s)) {
			t.Errorf("%q: declined, want it parsed", s)
		}
	}
	for _, s := range declinedSeeds {
		if checkParsePosts(t, &parser, []byte(s)) {
			t.Errorf("%q: parsed, want it declined", s)
		}
	}
}

// TestAssociateResponseMatchesJSON pins the hand-written response encoder to
// json.NewEncoder(w).Encode(associateResponse{…}) byte for byte, with entry
// names that need escaping, un-annotated clusters (entry omitted) and the
// empty answer.
func TestAssociateResponseMatchesJSON(t *testing.T) {
	e := newTestEnv(t)
	clusters := e.eng.Clusters()
	var assocs []memes.Association
	for i := range clusters {
		assocs = append(assocs, memes.Association{PostIndex: 3 * i, ClusterID: clusters[i].ID, Distance: i % 9})
	}
	for _, as := range [][]memes.Association{nil, assocs[:1], assocs} {
		want := associateResponse{Posts: 4096, Matched: len(as), Generation: 7, Associations: []associationJSON{}}
		for _, a := range as {
			want.Associations = append(want.Associations, associationJSON{
				PostIndex: a.PostIndex, ClusterID: a.ClusterID, Distance: a.Distance, Entry: clusters[a.ClusterID].EntryName(),
			})
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(want); err != nil {
			t.Fatal(err)
		}
		if got := appendAssociateResponse(nil, 4096, 7, as, clusters); !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("%d associations:\n got %s\nwant %s", len(as), got, buf.Bytes())
		}
	}
	// An entry name encoding/json escapes goes through json.Marshal.
	odd := []memes.ClusterInfo{{Annotation: annotate.Annotation{Representative: &annotate.Entry{Name: `<pepe> & "friends" ☺`}}}}
	want := associateResponse{Posts: 1, Matched: 1, Generation: 1, Associations: []associationJSON{{Entry: odd[0].EntryName()}}}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(want); err != nil {
		t.Fatal(err)
	}
	if got := appendAssociateResponse(nil, 1, 1, []memes.Association{{}}, odd); !bytes.Equal(got, buf.Bytes()) || odd[0].EntryName() == "" {
		t.Fatalf("escaped entry:\n got %s\nwant %s", got, buf.Bytes())
	}
}

// checkParseMatch is parseMatch's contract: it declines, or it returns
// exactly the hash json.Unmarshal and parseHash return for the same bytes.
func checkParseMatch(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	got, ok := parseMatch(body)
	if !ok {
		return false
	}
	var req matchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatalf("parseMatch accepted %q, json.Unmarshal refuses it: %v", body, err)
	}
	want, err := parseHash(req.Hash)
	if err != nil {
		t.Fatalf("parseMatch accepted %q, parseHash refuses it: %v", body, err)
	}
	if got != want {
		t.Fatalf("parseMatch(%q) = %#x, want %#x", body, uint64(got), uint64(want))
	}
	return true
}

// Match bodies around every edge of the two canonical forms.
var (
	matchAcceptedSeeds = []string{
		`{"hash":"00000000000000ff"}`, `{"hash":"0x00000000000000ff"}`, `{"hash":"0xff"}`, `{"hash":"f"}`,
		`{"hash":"FFFFFFFFFFFFFFFF"}`, `{"hash":"0xffffffffffffffff"}`, `{"hash":"0"}`, `{"hash":"0x0"}`,
		`{"hash":255}`, `{"hash":0}`, `{"hash":18446744073709551615}`,
		`{"hash":"00000000000000ff"}` + "\n", `{"hash":1}` + " \t\r\n",
	}
	matchDeclinedSeeds = []string{
		// Valid bodies outside the canonical forms: json.Unmarshal and
		// parseHash answer them.
		`{ "hash":"ff"}`, `{"hash": "ff"}`, `{"hash":"ff" }`, `{"hash":" ff"}`, ` {"hash":"ff"}`,
		`{"hash":"\u0066f"}`, `{"HASH":"ff"}`, `{"hash":"ff","extra":1}`, `{"hash":"ff","hash":"fe"}`,
		// Bodies json.Unmarshal or parseHash refuse.
		`{"hash":"0x"}`, `{"hash":""}`, `{"hash":"0123456789abcdef0"}`, `{"hash":"0x0123456789abcdef0"}`,
		`{"hash":"0X1"}`, `{"hash":"0x0x1"}`, `{"hash":"xyz"}`, `{"hash":18446744073709551616}`,
		`{"hash":99999999999999999999}`, `{"hash":0255}`, `{"hash":00}`, `{"hash":-1}`, `{"hash":1e3}`,
		`{"hash":1.0}`, `{"hash":null}`, `{"hash":true}`, `{"hash":"ff"}garbage`, `{"hash":"ff"}{"hash":"ff"}`,
		`{"hash":"ff"`, `{"hash":"ff`, `{"hash":`, `{"hash"`, `{}`, ``,
	}
)

// FuzzParseMatch: declined, or the hash json.Unmarshal and parseHash give
// for the same bytes; never a body they refuse, never a panic.
func FuzzParseMatch(f *testing.F) {
	for _, s := range append(matchAcceptedSeeds, matchDeclinedSeeds...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkParseMatch(t, body)
	})
}

// TestParseMatchAcceptsCanonical: the fast path takes both wire forms as
// clients send them, and every body of the declined list goes to the
// encoding/json path.
func TestParseMatchAcceptsCanonical(t *testing.T) {
	for _, h := range []memes.Hash{0, 1, 0xff, 1 << 63, ^memes.Hash(0)} {
		for _, body := range []string{
			fmt.Sprintf(`{"hash":"%016x"}`, uint64(h)),
			fmt.Sprintf(`{"hash":"0x%x"}`, uint64(h)),
			fmt.Sprintf(`{"hash":%d}`, uint64(h)),
		} {
			if !checkParseMatch(t, []byte(body)) {
				t.Errorf("%s: declined, want it parsed", body)
			}
		}
	}
	for _, s := range matchAcceptedSeeds {
		if !checkParseMatch(t, []byte(s)) {
			t.Errorf("%q: declined, want it parsed", s)
		}
	}
	for _, s := range matchDeclinedSeeds {
		if checkParseMatch(t, []byte(s)) {
			t.Errorf("%q: parsed, want it declined", s)
		}
	}
}

// TestMatchResponseMatchesJSON pins appendMatchResponse to
// json.NewEncoder(w).Encode(matchResponse{…}) byte for byte: a hit, a miss,
// an entry encoding/json escapes, and the extreme generations.
func TestMatchResponseMatchesJSON(t *testing.T) {
	e := newTestEnv(t)
	clusters := e.eng.Clusters()
	odd := memes.ClusterInfo{Community: dataset.Gab, Annotation: annotate.Annotation{Representative: &annotate.Entry{Name: `<pepe> & "friends" \ ☺ café`}}}
	var hit *memes.ClusterInfo
	for i := range clusters {
		if clusters[i].Annotated() {
			hit = &clusters[i]
			break
		}
	}
	if hit == nil {
		t.Fatal("no annotated cluster")
	}
	for _, gen := range []uint64{0, 7, ^uint64(0)} {
		for _, tc := range []struct {
			h  memes.Hash
			m  memes.Match
			ci *memes.ClusterInfo
		}{
			{hit.MedoidHash, memes.Match{ClusterID: hit.ID, Distance: 0}, hit},
			{hit.MedoidHash ^ 0b1011, memes.Match{ClusterID: hit.ID, Distance: 3}, hit},
			{0xdeadbeef, memes.Match{ClusterID: 4, Distance: 9}, &odd},
			{0, memes.Match{ClusterID: -1, Distance: -1}, nil},
			{^memes.Hash(0), memes.Match{ClusterID: -1, Distance: -1}, nil},
		} {
			want := matchResponse{Matched: tc.ci != nil, ClusterID: tc.m.ClusterID, Distance: tc.m.Distance, Hash: tc.h.String(), Generation: gen}
			if tc.ci != nil {
				want.Entry, want.Community = tc.ci.EntryName(), tc.ci.Community.String()
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(want); err != nil {
				t.Fatal(err)
			}
			if got := appendMatchResponse(nil, tc.h, gen, tc.m, tc.ci); !bytes.Equal(got, buf.Bytes()) {
				t.Fatalf("got  %s\nwant %s", got, buf.Bytes())
			}
		}
	}
}

// TestNonCanonicalBodiesTakeTheJSONPath: bodies the fast path declines are
// still served, with the answer of their canonical re-encoding.
func TestNonCanonicalBodiesTakeTheJSONPath(t *testing.T) {
	e := newTestEnv(t)
	posts := e.ds.Posts[:32]
	canonical, err := json.Marshal(postsRequest{Posts: posts})
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, canonical, "", "  "); err != nil {
		t.Fatal(err)
	}
	reordered := bytes.ReplaceAll(canonical, []byte(`{"id":`), []byte(`{"score":0,"id":`))
	folded := bytes.ReplaceAll(canonical, []byte(`"phash"`), []byte(`"PHash"`))

	_, want := e.do(t, http.MethodPost, "/v1/associate", canonical, nil)
	for name, body := range map[string][]byte{"indented": indented.Bytes(), "reordered keys": reordered, "case-folded key": folded} {
		if _, ok := parsePosts(new(dataset.PostParser), body, nil); ok {
			t.Fatalf("%s: the fast path took it; the test means to exercise the fallback", name)
		}
		code, got := e.do(t, http.MethodPost, "/v1/associate", body, nil)
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: status %d, answer differs from the canonical body's:\n got %.300s\nwant %.300s", name, code, got, want)
		}
	}
}

// TestTrailingBytesRejected: a body is one JSON value. json.Decoder used to
// stop reading after it; whole-body parsing makes anything but whitespace
// behind it a 400 on every endpoint that takes a JSON body.
func TestTrailingBytesRejected(t *testing.T) {
	e, _ := newIngestEnv(t, memes.IngestConfig{Threshold: 1 << 20})
	post, err := json.Marshal(e.ds.Posts[0])
	if err != nil {
		t.Fatal(err)
	}
	posts := `{"posts":[` + string(post) + `]}`
	match := `{"hash":"00000000000000ff"}`
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/associate", posts, http.StatusOK},
		{"/v1/associate", posts + " \r\n\t", http.StatusOK},
		{"/v1/associate", posts + "garbage", http.StatusBadRequest},
		{"/v1/associate", posts + posts, http.StatusBadRequest},
		{"/v1/associate", posts + "\n]", http.StatusBadRequest},
		{"/v1/associate", `{"posts":[]}garbage`, http.StatusBadRequest},
		{"/v1/associate", `{ "posts": [] } garbage`, http.StatusBadRequest}, // json.Unmarshal path
		{"/v1/ingest", posts, http.StatusOK},
		{"/v1/ingest", posts + "\n", http.StatusOK},
		{"/v1/ingest", posts + "garbage", http.StatusBadRequest},
		{"/v1/ingest", `{"posts":[]}{}`, http.StatusBadRequest},
		{"/v1/ingest", `{ "posts": [] } 0`, http.StatusBadRequest},
		{"/v1/match", match, http.StatusOK},
		{"/v1/match", match + "\n", http.StatusOK},
		{"/v1/match", match + "garbage", http.StatusBadRequest},
		{"/v1/match", match + match, http.StatusBadRequest},
	} {
		code, raw := e.do(t, http.MethodPost, tc.path, []byte(tc.body), nil)
		if code != tc.want {
			t.Errorf("%s %.60q…: status %d, want %d (%s)", tc.path, tc.body, code, tc.want, raw)
			continue
		}
		if code == http.StatusBadRequest {
			if er := decodeError(t, raw); er.Reason != reasonBadRequest || !strings.Contains(er.Error, "decoding request") {
				t.Errorf("%s %.60q…: error %+v, want a bad_request decoding error", tc.path, tc.body, er)
			}
		}
	}
}

// TestAssociateAllocCeiling holds the reflection-free path to its budget
// through the whole Handler() stack with the decision log on: at most 21
// allocations per 1,024-post request (1,367 before the codec; what is left
// is net/http's recorder and request, the middleware and the pool), where
// encoding/json alone cost more than one per post. The path reads 20, so
// not one allocation per request may join it.
func TestAssociateAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	logger, err := declog.New(declog.Config{Sink: &collectSink{}, BufferSize: 1 << 12, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer logger.Close()
	e := newTestEnvCfg(t, func(c *Config) { c.DecisionLog = logger })
	const batch = 1024
	body, err := json.Marshal(postsRequest{Posts: e.ds.Posts[:batch]})
	if err != nil {
		t.Fatal(err)
	}
	h := e.srv.Handler()
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/associate", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve() // sizes the pooled buffers and interns the subreddit names
	allocs := testing.AllocsPerRun(20, serve)
	t.Logf("%.0f allocs per %d-post request", allocs, batch)
	if allocs > 21 {
		t.Errorf("/v1/associate allocates %.0f times per %d-post request, ceiling 21", allocs, batch)
	}
	if st := logger.Stats(); st.Logged == 0 {
		t.Error("the decision log saw nothing: the ceiling must be measured with capture on")
	}
}

// TestMatchAllocCeiling holds /v1/match to what net/http and the harness
// cost: at most 21 allocations per lookup through the whole Handler() stack
// with the decision log on (40 while the lookup went through encoding/json,
// fmt and a context.WithTimeout timer). httptest's recorder and request
// account for about 12 of the 21.
func TestMatchAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	logger, err := declog.New(declog.Config{Sink: &collectSink{}, BufferSize: 1 << 16, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer logger.Close()
	e := newTestEnvCfg(t, func(c *Config) { c.DecisionLog = logger })
	h := e.srv.Handler()
	var bodies [][]byte
	for _, c := range e.eng.Clusters() {
		if c.Annotated() {
			bodies = append(bodies, matchBody(c.MedoidHash))
		}
	}
	if len(bodies) == 0 {
		t.Fatal("no annotated cluster to look up")
	}
	i := 0
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(bodies[i%len(bodies)])))
		i++
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"matched":true`)) {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve() // sizes the pooled buffers
	allocs := testing.AllocsPerRun(200, serve)
	t.Logf("%.0f allocs per lookup", allocs)
	if allocs > 21 {
		t.Errorf("/v1/match allocates %.0f times per lookup, ceiling 21", allocs)
	}
	if st := logger.Stats(); st.Logged == 0 || st.Dropped != 0 {
		t.Errorf("decision log %+v: the ceiling must be measured with every lookup captured", st)
	}
}

// TestBodyTooLarge covers MaxBodyBytes on the three JSON-bodied endpoints: a
// body over the bound is 413 body_too_large — whether or not Content-Length
// announced it — and one at the bound is served.
func TestBodyTooLarge(t *testing.T) {
	post, err := json.Marshal(memes.Post{ID: 1, Community: dataset.Pol, Timestamp: time.Unix(0, 0).UTC(), HasImage: true, Hash: 255, TruthMeme: -1, TruthRoot: -1})
	if err != nil {
		t.Fatal(err)
	}
	atBound := []byte(`{"posts":[` + string(post) + `]}`)
	e, _ := newIngestEnv(t, memes.IngestConfig{Threshold: 1 << 20})
	e.srv.maxBody = int64(len(atBound))
	over := append(bytes.Clone(atBound), '\n')

	for _, path := range []string{"/v1/associate", "/v1/ingest"} {
		if code, raw := e.do(t, http.MethodPost, path, atBound, nil); code != http.StatusOK {
			t.Errorf("%s with a body at the bound: status %d (%s)", path, code, raw)
		}
	}
	for _, path := range []string{"/v1/associate", "/v1/ingest", "/v1/match"} {
		for _, chunked := range []bool{false, true} {
			req, err := http.NewRequest(http.MethodPost, e.ts.URL+path, bytes.NewReader(over))
			if err != nil {
				t.Fatal(err)
			}
			if chunked {
				req.ContentLength = -1 // no Content-Length: the server learns the size by reading
			}
			resp, err := e.ts.Client().Do(req)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			var er errorResponse
			err = json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || er.Reason != reasonBodyTooLarge {
				t.Errorf("%s chunked=%v: status %d, body %+v (%v); want 413 %s", path, chunked, resp.StatusCode, er, err, reasonBodyTooLarge)
			}
		}
	}
	var stats StatsDoc
	e.do(t, http.MethodGet, "/v1/statsz", nil, &stats)
	if stats.Requests.Errors != 6 {
		t.Errorf("statsz counts %d error responses, want the 6 refused bodies", stats.Requests.Errors)
	}
	// A refused body must not poison the pooled scratch of the next request.
	e.srv.maxBody = DefaultMaxBodyBytes
	if code, raw := e.do(t, http.MethodPost, "/v1/associate", over, nil); code != http.StatusOK {
		t.Errorf("associate after the refusals: status %d (%s)", code, raw)
	}
}

// TestReadBodyGrowsWithoutContentLength: a chunked body far larger than the
// initial buffer is read whole and served.
func TestReadBodyGrowsWithoutContentLength(t *testing.T) {
	e := newTestEnv(t)
	body, err := json.Marshal(postsRequest{Posts: e.ds.Posts[:2048]})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, e.ts.URL+"/v1/associate", struct{ *bytes.Reader }{bytes.NewReader(body)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got associateResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK || got.Posts != 2048 {
		t.Fatalf("status %d, %d posts (%v); want 200 and 2048", resp.StatusCode, got.Posts, err)
	}
	if req.ContentLength > 0 {
		t.Fatal(fmt.Sprint("the request carried a Content-Length: ", req.ContentLength))
	}
}
