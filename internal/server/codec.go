package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/declog"
)

// The reflection-free wire path of the bulk endpoints. A request borrows one
// wireScratch for its lifetime: the body is read whole into body, parsed into
// posts by the hand-written Post codec (internal/dataset), associated into
// assocs, and the response is appended into out and written with one Write.
// encoding/json remains the definition of both directions: parsePosts only
// accepts the canonical shape json.Marshal emits and declines everything else
// to json.Unmarshal over the same bytes, and appendAssociateResponse is
// byte-identical to json.NewEncoder(w).Encode(associateResponse{…}).

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
// cannot claim MaxBodyBytes of memory.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, sc *wireScratch) (body []byte, ok bool) {
	sc.body.Reset()
	// MinRead of slack lets ReadFrom see EOF without growing the buffer.
	sc.body.Grow(int(min(max(r.ContentLength, 0), maxPooledBody)) + bytes.MinRead)
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBody)); err != nil {
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
	dst = strconv.AppendInt(dst, int64(posts), 10)
	dst = append(dst, `,"matched":`...)
	dst = strconv.AppendInt(dst, int64(len(assocs)), 10)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, gen, 10)
	dst = append(dst, `,"associations":[`...)
	for i := range assocs {
		a := &assocs[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"post_index":`...)
		dst = strconv.AppendInt(dst, int64(a.PostIndex), 10)
		dst = append(dst, `,"cluster_id":`...)
		dst = strconv.AppendInt(dst, int64(a.ClusterID), 10)
		dst = append(dst, `,"distance":`...)
		dst = strconv.AppendInt(dst, int64(a.Distance), 10)
		if entry := clusters[a.ClusterID].EntryName(); entry != "" {
			dst = append(dst, `,"entry":`...)
			dst = dataset.AppendJSONString(dst, entry)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}
