package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/declog"
)

// The reflection-free wire path of the JSON-bodied endpoints. A request
// borrows one wireScratch for its lifetime: the body is read whole into body,
// parsed (into posts by the hand-written Post codec of internal/dataset, or
// into one hash by parseMatch), served, and the response is appended into out
// and written with one Write. encoding/json remains the definition of both
// directions: parsePosts and parseMatch only accept the canonical shape
// json.Marshal emits and decline everything else to json.Unmarshal over the
// same bytes, and appendAssociateResponse and appendMatchResponse are
// byte-identical to json.NewEncoder(w).Encode of their response structs.

// wireScratch is the per-request state the JSON-bodied handlers recycle.
type wireScratch struct {
	body      bytes.Buffer
	posts     []memes.Post
	assocs    []memes.Association
	decisions []declog.Decision
	out       []byte
	parser    dataset.PostParser
}

var scratchPool = sync.Pool{New: func() any { return new(wireScratch) }}

// maxPooledBody caps the body buffer a scratch may carry back into the pool,
// so one huge request does not pin its buffers (posts and decisions scale
// with the body) until the next GC cycles clear the pool.
const maxPooledBody = 1 << 20

func putScratch(sc *wireScratch) {
	if sc.body.Cap() <= maxPooledBody {
		scratchPool.Put(sc)
	}
}

// readBody reads the request body whole into sc.body and answers the request
// itself when it cannot: 413 for a body over MaxBodyBytes, 400 for a failed
// read. The buffer is sized from Content-Length up to what the pool keeps;
// beyond that it grows with the bytes that actually arrive, so a header alone
// cannot claim MaxBodyBytes of memory. A body whose declared Content-Length is
// within the bound is read as it is: net/http's body reader already stops at
// the declared length. A chunked body, or one declared over the bound, is read
// through http.MaxBytesReader.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, sc *wireScratch) (body []byte, ok bool) {
	sc.body.Reset()
	// MinRead of slack lets ReadFrom see EOF without growing the buffer.
	sc.body.Grow(int(min(max(r.ContentLength, 0), maxPooledBody)) + bytes.MinRead)
	src := r.Body
	if r.ContentLength <= 0 || r.ContentLength > s.maxBody {
		src = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	if _, err := sc.body.ReadFrom(src); err != nil {
		code, reason := http.StatusBadRequest, reasonBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code, reason = http.StatusRequestEntityTooLarge, reasonBodyTooLarge
		}
		s.writeError(w, code, reason, "reading request: "+err.Error())
		return nil, false
	}
	return sc.body.Bytes(), true
}

// readPosts is the one body reader of /v1/associate and /v1/ingest: the
// {"posts":[…]} body, parsed on the fast path into sc.posts or, when the
// parser declines, by json.Unmarshal into a fresh slice. A body
// encoding/json rejects — trailing bytes included — is answered 400 here.
func (s *Server) readPosts(w http.ResponseWriter, r *http.Request, sc *wireScratch) (posts []memes.Post, ok bool) {
	body, ok := s.readBody(w, r, sc)
	if !ok {
		return nil, false
	}
	if sc.posts, ok = parsePosts(&sc.parser, body, sc.posts[:0]); ok {
		return sc.posts, true
	}
	var req postsRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, reasonBadRequest, "decoding request: "+err.Error())
		return nil, false
	}
	return req.Posts, true
}

// parsePosts parses a canonical {"posts":[…]} body, appending to posts. ok
// false means declined (see dataset.PostParser): the body may still be valid
// JSON, and what was appended is garbage.
//
//memes:noalloc
func parsePosts(parser *dataset.PostParser, body []byte, posts []memes.Post) ([]memes.Post, bool) {
	const open = `{"posts":[`
	if len(body) <= len(open) || string(body[:len(open)]) != open {
		return posts, false
	}
	i := len(open)
	for body[i] != ']' {
		posts = append(posts, memes.Post{})
		n, ok := parser.Parse(body[i:], &posts[len(posts)-1])
		if i += n; !ok || i >= len(body) {
			return posts, false
		}
		if body[i] == ',' {
			if i++; i >= len(body) || body[i] == ']' {
				return posts, false
			}
		} else if body[i] != ']' {
			return posts, false
		}
	}
	// Whitespace may follow the value, as encoding/json allows; anything
	// else is for json.Unmarshal to refuse.
	rest := body[i+1:]
	return posts, len(rest) > 0 && rest[0] == '}' && len(bytes.TrimLeft(rest[1:], " \t\r\n")) == 0
}

// appendAssociateResponse appends the /v1/associate answer: the bytes
// json.NewEncoder(w).Encode writes for the associateResponse of the same
// associations, newline included.
//
//memes:noalloc
func appendAssociateResponse(dst []byte, posts int, gen uint64, assocs []memes.Association, clusters []memes.ClusterInfo) []byte {
	dst = append(dst, `{"posts":`...)
	dst = dataset.AppendInt(dst, int64(posts))
	dst = append(dst, `,"matched":`...)
	dst = dataset.AppendInt(dst, int64(len(assocs)))
	dst = append(dst, `,"generation":`...)
	dst = dataset.AppendUint(dst, gen)
	dst = append(dst, `,"associations":[`...)
	for i := range assocs {
		a := &assocs[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"post_index":`...)
		dst = dataset.AppendInt(dst, int64(a.PostIndex))
		dst = append(dst, `,"cluster_id":`...)
		dst = dataset.AppendInt(dst, int64(a.ClusterID))
		dst = append(dst, `,"distance":`...)
		dst = dataset.AppendInt(dst, int64(a.Distance))
		if entry := clusters[a.ClusterID].EntryName(); entry != "" {
			dst = append(dst, `,"entry":`...)
			dst = dataset.AppendJSONString(dst, entry)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// parseMatch parses a canonical /v1/match body: {"hash":"<hex>"}, 1-16 hex
// digits after an optional 0x, or {"hash":<decimal>}, an unsigned 64-bit
// integer without leading zeros; whitespace may follow the object. ok false
// means declined: whitespace inside the object, escapes, other or repeated
// keys, overflow and invalid JSON are all for json.Unmarshal and parseHash
// to answer, so the accepted forms and every 400 stay theirs.
//
//memes:noalloc
func parseMatch(body []byte) (h memes.Hash, ok bool) {
	const open = `{"hash":`
	if len(body) <= len(open) || string(body[:len(open)]) != open {
		return 0, false
	}
	i := len(open)
	var v uint64
	if body[i] == '"' {
		i++
		if i+1 < len(body) && body[i] == '0' && body[i+1] == 'x' {
			i += 2
		}
		start := i
		for ; i < len(body); i++ {
			d, isHex := unhex(body[i])
			if !isHex {
				break
			}
			v = v<<4 | uint64(d)
		}
		if n := i - start; n == 0 || n > 16 || i >= len(body) || body[i] != '"' {
			return 0, false
		}
		i++
	} else {
		start := i
		for ; i < len(body) && '0' <= body[i] && body[i] <= '9'; i++ {
			d := uint64(body[i] - '0')
			if v > (math.MaxUint64-d)/10 {
				return 0, false
			}
			v = v*10 + d
		}
		if n := i - start; n == 0 || (n > 1 && body[start] == '0') {
			return 0, false
		}
	}
	if i >= len(body) || body[i] != '}' {
		return 0, false
	}
	return memes.Hash(v), len(bytes.TrimLeft(body[i+1:], " \t\r\n")) == 0
}

// unhex decodes one hexadecimal digit of either case.
func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// appendMatchResponse appends the answer of /v1/match and /v1/match/image:
// the bytes json.NewEncoder(w).Encode writes for the matchResponse of the
// lookup, newline included. ci is the matched cluster, nil for a miss (m is
// then {-1, -1}).
//
//memes:noalloc
func appendMatchResponse(dst []byte, h memes.Hash, gen uint64, m memes.Match, ci *memes.ClusterInfo) []byte {
	dst = append(dst, `{"matched":`...)
	dst = strconv.AppendBool(dst, ci != nil)
	dst = append(dst, `,"cluster_id":`...)
	dst = dataset.AppendInt(dst, int64(m.ClusterID))
	dst = append(dst, `,"distance":`...)
	dst = dataset.AppendInt(dst, int64(m.Distance))
	if ci != nil {
		if entry := ci.EntryName(); entry != "" {
			dst = append(dst, `,"entry":`...)
			dst = dataset.AppendJSONString(dst, entry)
		}
		if community := ci.Community.String(); community != "" {
			dst = append(dst, `,"community":`...)
			dst = dataset.AppendJSONString(dst, community)
		}
	}
	dst = append(dst, `,"hash":"`...)
	dst, _ = h.AppendText(dst)
	dst = append(dst, `","generation":`...)
	dst = dataset.AppendUint(dst, gen)
	return append(dst, "}\n"...)
}
