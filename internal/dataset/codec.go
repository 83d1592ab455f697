package dataset

import (
	"encoding/json"
	"math"
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
	dst = AppendInt(dst, p.ID)
	dst = append(dst, `,"community":`...)
	dst = AppendInt(dst, int64(p.Community))
	if p.Subreddit != "" {
		dst = append(dst, `,"subreddit":`...)
		dst = AppendJSONString(dst, p.Subreddit)
	}
	dst = append(dst, `,"timestamp":"`...)
	var utc bool
	if dst, utc = appendUTC(dst, p.Timestamp); !utc {
		// AppendText is the strict RFC 3339 form Time.MarshalJSON quotes.
		stamped, err := p.Timestamp.AppendText(dst)
		if err != nil {
			return dst[:start], marshalError(p)
		}
		dst = stamped
	}
	dst = append(dst, `","has_image":`...)
	dst = strconv.AppendBool(dst, p.HasImage)
	if p.Hash != 0 {
		dst = append(dst, `,"phash":`...)
		dst = AppendUint(dst, p.Hash)
	}
	if p.Score != 0 {
		dst = append(dst, `,"score":`...)
		dst = AppendInt(dst, int64(p.Score))
	}
	dst = append(dst, `,"truth_meme":`...)
	dst = AppendInt(dst, int64(p.TruthMeme))
	dst = append(dst, `,"truth_root":`...)
	dst = AppendInt(dst, int64(p.TruthRoot))
	return append(dst, '}'), nil
}

// digitPairs holds "00" through "99": two digits per table read.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// AppendInt appends v in decimal, byte-identical to
// strconv.AppendInt(dst, v, 10). Exported, like AppendJSONString, for every
// hand-written encoder.
//
//memes:noalloc
func AppendInt(dst []byte, v int64) []byte {
	if v < 0 {
		// -v wraps for math.MinInt64, whose uint64 is still its magnitude.
		return AppendUint(append(dst, '-'), uint64(-v))
	}
	return AppendUint(dst, uint64(v))
}

// AppendUint appends v in decimal, byte-identical to
// strconv.AppendUint(dst, v, 10). The value is cut into 8-digit chunks, each
// printed with 32-bit arithmetic two digits per table read.
//
//memes:noalloc
func AppendUint(dst []byte, v uint64) []byte {
	if v < 1e8 {
		return appendLead(dst, uint32(v))
	}
	hi, lo := v/1e8, uint32(v%1e8)
	if hi < 1e8 {
		dst = appendLead(dst, uint32(hi))
	} else {
		dst = appendLead(dst, uint32(hi/1e8)) // at most 1844
		dst = append8(dst, uint32(hi%1e8))
	}
	return append8(dst, lo)
}

// appendLead appends v (below 1e8) without leading zeros.
//
//memes:noalloc
func appendLead(dst []byte, v uint32) []byte {
	if v < 1e4 {
		return appendLead4(dst, v)
	}
	hi, lo := v/1e4, v%1e4
	c, d := 2*(lo/100), 2*(lo%100)
	dst = appendLead4(dst, hi)
	return append(dst, digitPairs[c], digitPairs[c+1], digitPairs[d], digitPairs[d+1])
}

// appendLead4 appends v (below 1e4) without leading zeros.
//
//memes:noalloc
func appendLead4(dst []byte, v uint32) []byte {
	if v < 10 {
		return append(dst, byte('0'+v))
	}
	if v < 100 {
		return append(dst, digitPairs[2*v], digitPairs[2*v+1])
	}
	hi, lo := v/100, 2*(v%100)
	if hi < 10 {
		return append(dst, byte('0'+hi), digitPairs[lo], digitPairs[lo+1])
	}
	return append(dst, digitPairs[2*hi], digitPairs[2*hi+1], digitPairs[lo], digitPairs[lo+1])
}

// append8 appends v (below 1e8) as exactly eight digits.
//
//memes:noalloc
func append8(dst []byte, v uint32) []byte {
	hi, lo := v/1e4, v%1e4
	a, b, c, d := 2*(hi/100), 2*(hi%100), 2*(lo/100), 2*(lo%100)
	return append(dst, digitPairs[a], digitPairs[a+1], digitPairs[b], digitPairs[b+1],
		digitPairs[c], digitPairs[c+1], digitPairs[d], digitPairs[d+1])
}

// The years appendUTC prints, 0000-01-01T00:00:00Z up to 10000-01-01, as
// Unix seconds, and the days in a 400-year era of the Gregorian calendar.
const (
	year0ToUnix    = 62167219200
	unixToYear1e4  = 253402300800
	daysPer400Year = 146097
)

// appendUTC appends a UTC time with a year in 0..9999 as Time.AppendText
// does: "YYYY-MM-DDTHH:MM:SS", the nanoseconds with their trailing zeros
// trimmed (none at all when zero), then "Z". Any other time — another
// Location, even one at offset zero, or another year — comes back false
// with dst unextended. Date and clock come from t.Unix() in one pass, by
// the civil-from-days arithmetic over 400-year eras.
//
//memes:noalloc
func appendUTC(dst []byte, t time.Time) ([]byte, bool) {
	if t.Location() != time.UTC {
		return dst, false
	}
	unix := t.Unix()
	if unix < -year0ToUnix || unix >= unixToYear1e4 {
		return dst, false
	}
	secs := uint64(unix + year0ToUnix)
	sod := uint32(secs % 86400)
	// Days since -0400-03-01: an era starts on March 1, so the leap day
	// is the last day of its year. 0000-01-01 is 60 days before 0000-03-01.
	days := uint32(secs/86400) + daysPer400Year - 60
	era := days / daysPer400Year
	doe := days - era*daysPer400Year                                   // 0..146096
	yoe := (doe - doe/1460 + doe/36524 - doe/(daysPer400Year-1)) / 365 // 0..399
	doy := doe - (365*yoe + yoe/4 - yoe/100)                           // 0..365, from March 1
	mp := (5*doy + 2) / 153                                            // 0..11, from March
	day := doy - (153*mp+2)/5 + 1
	month, year := mp+3, era*400+yoe
	if month > 12 {
		month -= 12
		year++
	}
	year -= 400
	y, yy, mo, d := 2*(year/100), 2*(year%100), 2*month, 2*day
	h, mi, sec := 2*(sod/3600), 2*(sod/60%60), 2*(sod%60)
	dst = append(dst, digitPairs[y], digitPairs[y+1], digitPairs[yy], digitPairs[yy+1], '-',
		digitPairs[mo], digitPairs[mo+1], '-', digitPairs[d], digitPairs[d+1], 'T',
		digitPairs[h], digitPairs[h+1], ':', digitPairs[mi], digitPairs[mi+1], ':', digitPairs[sec], digitPairs[sec+1])
	if ns := uint32(t.Nanosecond()); ns != 0 {
		dst = append8(append(dst, '.', byte('0'+ns/1e8)), ns%1e8)
		for dst[len(dst)-1] == '0' { // a nonzero digit stops it before '.'
			dst = dst[:len(dst)-1]
		}
	}
	return append(dst, 'Z'), true
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

// postKeys are the keys of a Post in declaration (and so json.Marshal)
// order, each quoted and followed by its colon.
var postKeys = [...]string{`"id":`, `"community":`, `"subreddit":`, `"timestamp":`, `"has_image":`, `"phash":`, `"score":`, `"truth_meme":`, `"truth_root":`}

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
		// Key: the quoted name and its colon. Searching forward only
		// refuses unknown, repeated and out-of-order keys alike, and the
		// case-folded spellings encoding/json accepts.
		for field < len(postKeys) && !hasKey(data[i:], postKeys[field]) {
			field++
		}
		if field == len(postKeys) {
			return 0, false
		}
		i += len(postKeys[field])
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

// hasKey reports whether data starts with key.
func hasKey(data []byte, key string) bool {
	return len(data) >= len(key) && string(data[:len(key)]) == key
}

// parseInt reads a JSON integer — an optional minus sign and digits without
// a leading zero — of the given bit size; overflow declines. A fraction or
// exponent that follows is refused by the caller's delimiter check.
//
//memes:noalloc
func parseInt(data []byte, i, bits int) (v int64, next int, ok bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	u, next, ok := parseUint(data, i)
	limit := uint64(1) << (bits - 1) // the magnitude of the smallest value
	if !ok || u > limit || (u == limit && !neg) {
		return 0, 0, false
	}
	if neg {
		return int64(-u), next, true
	}
	return int64(u), next, true
}

// parseUint is parseInt for an unsigned 64-bit field: the digits at
// data[i:], without a leading zero or a minus sign, read in the pass that
// finds them. Nineteen digits cannot overflow; a twentieth is checked, and a
// twenty-first always overflows.
//
//memes:noalloc
func parseUint(data []byte, i int) (v uint64, next int, ok bool) {
	start := i
	for ; i < len(data) && i-start < 19; i++ {
		c := data[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + uint64(c)
	}
	if i == start || (data[start] == '0' && i > start+1) {
		return 0, 0, false
	}
	if i-start == 19 && i < len(data) && data[i]-'0' <= 9 {
		c := uint64(data[i] - '0')
		if v > (math.MaxUint64-c)/10 {
			return 0, 0, false
		}
		v = v*10 + c
		if i++; i < len(data) && data[i]-'0' <= 9 {
			return 0, 0, false
		}
	}
	return v, i, true
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

// parseTime reads a quoted, escape-free timestamp. The UTC form AppendPost
// writes, "YYYY-MM-DDTHH:MM:SS[.f{1,9}]Z", is read here; every other literal
// goes to Time.UnmarshalJSON — the method json.Unmarshal itself calls with
// the same bytes, so the time, its location and what is refused are
// identical by construction. It allocates only for a zone offset or a
// refusal.
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
	if parseUTC(data[i+1:end], t) {
		return end + 1, true
	}
	return end + 1, t.UnmarshalJSON(data[i:end+1]) == nil
}

// parseUTC reads "YYYY-MM-DDTHH:MM:SS[.f{1,9}]Z" with the range checks of
// the time package's RFC 3339 parser — month, day in month, hour < 24,
// minute and second < 60 — and ends where that parser does, in time.Date
// on UTC. false means "not this form", not "invalid".
//
//memes:noalloc
func parseUTC(s []byte, t *time.Time) bool {
	const stamp = len("2006-01-02T15:04:05")
	if len(s) < stamp+1 || s[len(s)-1] != 'Z' ||
		s[4] != '-' || s[7] != '-' || s[10] != 'T' || s[13] != ':' || s[16] != ':' {
		return false
	}
	year, ok := digits4(s[0], s[1], s[2], s[3])
	month, ok1 := digits2(s[5], s[6])
	day, ok2 := digits2(s[8], s[9])
	hour, ok3 := digits2(s[11], s[12])
	min, ok4 := digits2(s[14], s[15])
	sec, ok5 := digits2(s[17], s[18])
	if !(ok && ok1 && ok2 && ok3 && ok4 && ok5) ||
		month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour > 23 || min > 59 || sec > 59 {
		return false
	}
	nsec := 0
	if frac := s[stamp : len(s)-1]; len(frac) > 0 {
		if len(frac) < 2 || len(frac) > 10 || frac[0] != '.' {
			return false
		}
		for _, c := range frac[1:] {
			if c-'0' > 9 {
				return false
			}
			nsec = nsec*10 + int(c-'0')
		}
		for k := len(frac); k < 10; k++ {
			nsec *= 10
		}
	}
	*t = time.Date(year, time.Month(month), day, hour, min, sec, nsec, time.UTC)
	return true
}

// digits2 is the value of two ASCII digits, and whether both are digits.
func digits2(a, b byte) (int, bool) {
	return int(a-'0')*10 + int(b-'0'), a-'0' <= 9 && b-'0' <= 9
}

func digits4(a, b, c, d byte) (int, bool) {
	hi, ok1 := digits2(a, b)
	lo, ok2 := digits2(c, d)
	return hi*100 + lo, ok1 && ok2
}

// daysIn is the number of days in month (1..12) of year, leap years
// included.
func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}
