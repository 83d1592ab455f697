package dataset

import (
	"encoding/json"
	"strconv"
	"time"
)

// This file is the one hand-written JSON form of a Post, shared by every hot
// wire surface that carries posts: the /v1/associate and /v1/ingest bodies,
// the decision-log NDJSON line, and posts.jsonl. encoding/json stays the
// definition of the format. AppendPost emits exactly the bytes json.Marshal
// does, and PostParser accepts only the shape AppendPost emits: on anything
// else it declines, and the caller runs encoding/json over the same bytes, so
// the accepted language and every error message are encoding/json's alone.

// AppendPost appends the JSON encoding of p to dst, byte-identical to
// json.Marshal(p). The error is json.Marshal's own (a timestamp outside
// years 0..9999); dst comes back unextended with it.
//
//memes:noalloc
func AppendPost(dst []byte, p *Post) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, p.ID, 10)
	dst = append(dst, `,"community":`...)
	dst = strconv.AppendInt(dst, int64(p.Community), 10)
	if p.Subreddit != "" {
		dst = append(dst, `,"subreddit":`...)
		dst = AppendJSONString(dst, p.Subreddit)
	}
	dst = append(dst, `,"timestamp":"`...)
	// AppendText is the strict RFC 3339 form Time.MarshalJSON quotes.
	stamped, err := p.Timestamp.AppendText(dst)
	if err != nil {
		return dst[:start], marshalError(p)
	}
	dst = stamped
	dst = append(dst, `","has_image":`...)
	dst = strconv.AppendBool(dst, p.HasImage)
	if p.Hash != 0 {
		dst = append(dst, `,"phash":`...)
		dst = strconv.AppendUint(dst, p.Hash, 10)
	}
	if p.Score != 0 {
		dst = append(dst, `,"score":`...)
		dst = strconv.AppendInt(dst, int64(p.Score), 10)
	}
	dst = append(dst, `,"truth_meme":`...)
	dst = strconv.AppendInt(dst, int64(p.TruthMeme), 10)
	dst = append(dst, `,"truth_root":`...)
	dst = strconv.AppendInt(dst, int64(p.TruthRoot), 10)
	return append(dst, '}'), nil
}

// marshalError is AppendPost's cold path: json.Marshal words the error.
func marshalError(p *Post) error {
	_, err := json.Marshal(p)
	return err
}

// AppendJSONString appends s as the JSON string json.Marshal(s) produces.
// Printable ASCII free of the characters encoding/json escapes is copied; any
// other string is handed to json.Marshal whole. Exported for the hand-written
// encoders built on AppendPost (the decision-log line, the associate
// response).
//
//memes:noalloc
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainASCII(s[i]) {
			return appendEscaped(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plainASCII reports whether encoding/json copies c into a string unescaped
// and the parser reads it back without decoding.
func plainASCII(c byte) bool {
	return c >= 0x20 && c < 0x80 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

func appendEscaped(dst []byte, s string) []byte {
	quoted, _ := json.Marshal(s) // a string always marshals
	return append(dst, quoted...)
}

// PostParser is the strict single-pass parser for the object AppendPost
// emits: keys in declaration order, each at most once (omitted keys leave the
// zero value, as json.Unmarshal does), no whitespace, integers without
// fraction or exponent, plain-ASCII strings. It interns subreddit names, so a
// parser that is reused allocates only for names it has not seen. The zero
// value is ready; a PostParser is not safe for concurrent use.
type PostParser struct {
	names map[string]string
}

// Bounds of the intern table: entries, so hostile input cannot grow it
// forever, and name length, so it never pins a long string.
const (
	internMaxNames = 1024
	internMaxLen   = 64
)

// postKeys are the keys of a Post in declaration (and so json.Marshal) order.
var postKeys = [...]string{"id", "community", "subreddit", "timestamp", "has_image", "phash", "score", "truth_meme", "truth_root"}

// Parse reads one Post object from the front of data into p and returns the
// bytes consumed. ok false means the parser declines — the input is not in
// the canonical shape, which says nothing about its validity — and p holds
// garbage; decode the same bytes with encoding/json instead.
//
//memes:noalloc
func (d *PostParser) Parse(data []byte, p *Post) (n int, ok bool) {
	*p = Post{}
	if len(data) < 2 || data[0] != '{' {
		return 0, false
	}
	if data[1] == '}' {
		return 2, true
	}
	i, field := 1, 0
	for {
		// Key: a quoted name, then a colon.
		if i >= len(data) || data[i] != '"' {
			return 0, false
		}
		i++
		k := i
		for i < len(data) && data[i] != '"' {
			i++
		}
		if i+1 >= len(data) || data[i+1] != ':' {
			return 0, false
		}
		// Searching forward only refuses unknown, repeated and out-of-order
		// keys alike, and the case-folded spellings encoding/json accepts.
		for field < len(postKeys) && string(data[k:i]) != postKeys[field] {
			field++
		}
		i += 2
		var v int64
		switch field {
		case 0:
			p.ID, i, ok = parseInt(data, i, 64)
		case 1:
			v, i, ok = parseInt(data, i, strconv.IntSize)
			p.Community = Community(v)
		case 2:
			p.Subreddit, i, ok = d.parseString(data, i)
		case 3:
			i, ok = parseTime(data, i, &p.Timestamp)
		case 4:
			p.HasImage, i, ok = parseBool(data, i)
		case 5:
			p.Hash, i, ok = parseUint(data, i)
		case 6:
			v, i, ok = parseInt(data, i, strconv.IntSize)
			p.Score = int(v)
		case 7:
			v, i, ok = parseInt(data, i, strconv.IntSize)
			p.TruthMeme = int(v)
		case 8:
			v, i, ok = parseInt(data, i, strconv.IntSize)
			p.TruthRoot = int(v)
		default:
			return 0, false
		}
		field++
		if !ok || i >= len(data) {
			return 0, false
		}
		switch data[i] {
		case ',':
			i++
		case '}':
			return i + 1, true
		default:
			return 0, false
		}
	}
}

// intEnd returns the end of the JSON integer at data[i:] — an optional minus
// sign and digits without a leading zero — or -1. A fraction or exponent that
// follows is refused by the caller's delimiter check.
func intEnd(data []byte, i int) int {
	if i < len(data) && data[i] == '-' {
		i++
	}
	first := i
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		i++
	}
	if i == first || (data[first] == '0' && i > first+1) {
		return -1
	}
	return i
}

// parseInt reads a JSON integer of the given bit size; overflow declines.
// strconv does not let its argument escape, so the conversion stays on the
// stack.
//
//memes:noalloc
func parseInt(data []byte, i, bits int) (v int64, next int, ok bool) {
	if next = intEnd(data, i); next < 0 {
		return 0, 0, false
	}
	v, err := strconv.ParseInt(string(data[i:next]), 10, bits)
	return v, next, err == nil
}

// parseUint is parseInt for an unsigned 64-bit field; a minus sign declines.
//
//memes:noalloc
func parseUint(data []byte, i int) (v uint64, next int, ok bool) {
	if next = intEnd(data, i); next < 0 {
		return 0, 0, false
	}
	v, err := strconv.ParseUint(string(data[i:next]), 10, 64)
	return v, next, err == nil
}

func parseBool(data []byte, i int) (v bool, next int, ok bool) {
	switch {
	case len(data)-i >= 4 && string(data[i:i+4]) == "true":
		return true, i + 4, true
	case len(data)-i >= 5 && string(data[i:i+5]) == "false":
		return false, i + 5, true
	}
	return false, 0, false
}

// parseString reads a quoted string of plain ASCII; an escape, a control
// character or a non-ASCII byte declines.
//
//memes:noalloc
func (d *PostParser) parseString(data []byte, i int) (s string, next int, ok bool) {
	if i >= len(data) || data[i] != '"' {
		return "", 0, false
	}
	i++
	start := i
	for i < len(data) && plainASCII(data[i]) {
		i++
	}
	if i >= len(data) || data[i] != '"' {
		return "", 0, false
	}
	raw := data[start:i]
	if s, ok = d.names[string(raw)]; !ok {
		s = d.intern(raw)
	}
	return s, i + 1, true
}

// intern copies a name out of the input buffer, remembering it while the
// table has room.
func (d *PostParser) intern(raw []byte) string {
	s := string(raw)
	if len(s) <= internMaxLen && len(d.names) < internMaxNames {
		if d.names == nil {
			d.names = make(map[string]string)
		}
		d.names[s] = s
	}
	return s
}

// parseTime hands a quoted, escape-free literal to Time.UnmarshalJSON — the
// method json.Unmarshal itself calls with the same bytes, so the time, its
// location and what is refused are identical by construction. It allocates
// only for a zone offset or a refusal.
//
//memes:noalloc
func parseTime(data []byte, i int, t *time.Time) (next int, ok bool) {
	if i >= len(data) || data[i] != '"' {
		return 0, false
	}
	end := i + 1
	for end < len(data) && data[end] != '"' && data[end] != '\\' {
		end++
	}
	if end >= len(data) || data[end] != '"' {
		return 0, false
	}
	return end + 1, t.UnmarshalJSON(data[i:end+1]) == nil
}
