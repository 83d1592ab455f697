package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// codecPosts are the shapes the codec must get byte-exact: every optional
// field present and absent, extremes of every integer, strings that need
// escaping, and timestamps at the edges of what Time.MarshalJSON accepts:
// leap days, every fraction length, and zones that print "Z" without being
// UTC.
func codecPosts() []Post {
	est := time.FixedZone("EST", -5*3600)
	posts := []Post{
		{},
		{ID: 1, Community: TheDonald, Subreddit: "The_Donald", Timestamp: time.Date(2016, 7, 1, 12, 30, 15, 0, time.UTC), HasImage: true, Hash: 1<<64 - 1, Score: -17, TruthMeme: -1, TruthRoot: -1},
		{ID: -1 << 63, Community: -3, Score: math.MaxInt, TruthMeme: math.MinInt, TruthRoot: 7},
		{ID: 1<<63 - 1, Hash: 1e19 - 1, Score: math.MinInt, TruthMeme: math.MaxInt},
		{ID: 1<<63 - 1, Timestamp: time.Date(2017, 2, 28, 23, 59, 59, 123456789, time.UTC)},
		{Timestamp: time.Date(2017, 1, 1, 0, 0, 0, 120000000, time.UTC)},
		{Timestamp: time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC)},
		{Timestamp: time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)},
		{Timestamp: time.Date(2016, 2, 29, 1, 2, 3, 0, est)},
		{Subreddit: `<script>&"quoted"\`},
		{Subreddit: "мемы/🐸"},
		{Subreddit: "tab\there\x00\x7f"},
		{Subreddit: "bad\xffutf8\u2028"},
		{Timestamp: time.Date(2000, 2, 29, 0, 0, 0, 0, time.UTC)},
		{Timestamp: time.Date(2016, 2, 29, 23, 59, 59, 0, time.UTC)},
		{Timestamp: time.Date(1900, 2, 28, 0, 0, 0, 0, time.UTC)},
		{Timestamp: time.Date(2016, 7, 1, 0, 0, 0, 0, time.FixedZone("UTC", 0))},
		{Timestamp: time.Date(2016, 7, 1, 0, 0, 0, 5, time.FixedZone("", 0))},
	}
	// One to nine fraction digits, each with a nonzero last digit.
	for ns := 100000000; ns > 0; ns /= 10 {
		posts = append(posts, Post{Timestamp: time.Date(2017, 3, 4, 5, 6, 7, ns+ns/100000000, time.UTC)})
	}
	return posts
}

// TestAppendPostMatchesJSON pins the encoder to json.Marshal, byte for byte,
// errors included.
func TestAppendPostMatchesJSON(t *testing.T) {
	posts := codecPosts()
	ds, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	posts = append(posts, ds.Posts...)
	prefix := []byte("kept")
	for i := range posts {
		want, err := json.Marshal(&posts[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendPost(prefix, &posts[i])
		if err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
		if !bytes.Equal(got[len(prefix):], want) || !bytes.HasPrefix(got, prefix) {
			t.Fatalf("post %d:\n got %s\nwant %s", i, got[len(prefix):], want)
		}
	}

	// The fast path takes UTC alone; a zone at offset zero prints the same
	// "Z" through Time.AppendText.
	for _, loc := range []*time.Location{time.FixedZone("UTC", 0), time.FixedZone("", 0), time.Local} {
		if _, ok := appendUTC(nil, time.Date(2016, 7, 1, 0, 0, 0, 0, loc)); ok {
			t.Errorf("appendUTC took a time in %v", loc)
		}
	}

	for _, year := range []int{-1, 10000} {
		p := Post{Timestamp: time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC)}
		_, wantErr := json.Marshal(&p)
		got, err := AppendPost(prefix, &p)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("year %d: error %v, want json.Marshal's %v", year, err, wantErr)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("year %d: dst came back as %q", year, got)
		}
	}
}

// FuzzAppendInts: AppendUint and AppendInt are strconv's base-10 appends,
// byte for byte, after whatever dst already holds. Each seed's bits are also
// read as the other type, so the signed extremes cover the unsigned ones.
func FuzzAppendInts(f *testing.F) {
	for _, v := range []uint64{0, 9, 10, 99, 100, 1e8 - 1, 1e8, 1e16, math.MaxUint64} {
		f.Add(v, int64(v))
	}
	f.Add(uint64(1<<63), int64(math.MinInt64))
	f.Add(uint64(math.MaxInt64), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, u uint64, i int64) {
		prefix := []byte("kept")
		check := func(name string, got, want []byte) {
			if !bytes.Equal(got, want) {
				t.Fatalf("%s = %q, strconv wrote %q", name, got, want)
			}
		}
		for _, v := range []uint64{u, uint64(i)} {
			check(fmt.Sprintf("AppendUint(%d)", v), AppendUint(prefix, v), strconv.AppendUint(prefix, v, 10))
			check(fmt.Sprintf("AppendInt(%d)", int64(v)), AppendInt(prefix, int64(v)), strconv.AppendInt(prefix, int64(v), 10))
		}
	})
}

// TestAppendUTCEveryDay: appendUTC prints every day of years 0..9999, at
// its first instant and at its last nanosecond, as Time.AppendText does, and
// declines the years either side and a zone that only looks like UTC.
func TestAppendUTCEveryDay(t *testing.T) {
	var got, want []byte
	last := time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC)
	for day := time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC); !day.After(last); day = day.AddDate(0, 0, 1) {
		for _, tm := range []time.Time{day, day.Add(24*time.Hour - 1)} {
			var ok bool
			got, ok = appendUTC(got[:0], tm)
			want, _ = tm.AppendText(want[:0])
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("appendUTC(%v) = %q, %v; Time.AppendText wrote %q", tm, got, ok, want)
			}
		}
	}
	for _, tm := range []time.Time{
		time.Date(-1, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 7, 1, 0, 0, 0, 0, time.FixedZone("UTC", 0)),
	} {
		if got, ok := appendUTC([]byte("kept"), tm); ok || string(got) != "kept" {
			t.Errorf("appendUTC(%v) = %q, %v; want it declined with dst unextended", tm, got, ok)
		}
	}
}

// TestPostParserMatchesJSON: whatever the parser accepts, json.Unmarshal
// decodes to the same Post — zone offsets included, since both hand the
// literal to Time.UnmarshalJSON — and it accepts everything AppendPost emits
// for a post with plain-ASCII strings.
func TestPostParserMatchesJSON(t *testing.T) {
	var parser PostParser
	for i, p := range codecPosts() {
		raw, err := json.Marshal(&p)
		if err != nil {
			t.Fatal(err)
		}
		var want, got Post
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		n, ok := parser.Parse(raw, &got)
		canonical := !strings.ContainsFunc(p.Subreddit, func(r rune) bool {
			return r >= 0x80 || !plainASCII(byte(r))
		})
		if ok != canonical {
			t.Errorf("post %d %s: accepted=%v, want %v", i, raw, ok, canonical)
		}
		if ok && (n != len(raw) || !reflect.DeepEqual(got, want)) {
			t.Errorf("post %d %s: parsed %d bytes to %+v, want %d and %+v", i, raw, n, got, len(raw), want)
		}
	}
}

// TestPostParserDeclines lists inputs encoding/json accepts (or words an
// error for) that are outside the canonical shape: the parser must hand each
// of them back.
func TestPostParserDeclines(t *testing.T) {
	for _, in := range []string{
		``, `{`, `[]`, `null`, ` {}`, `{ }`,
		`{"ID":1}`,                 // case-folded key
		`{"id":1,"id":2}`,          // duplicate key
		`{"community":1,"id":2}`,   // out of order
		`{"id":1,"extra":true}`,    // unknown key
		`{"id":null}`,              // null leaves the field alone
		`{"id":1.0}`, `{"id":1e3}`, // float and exponent
		`{"id":01}`, `{"id":-}`, `{"id":+1}`,
		`{"id":00}`, `{"id":-01}`, `{"id":--1}`, `{"id":-a}`,
		`{"id":9223372036854775808}`,     // one past int64
		`{"id":-9223372036854775809}`,    // one before
		`{"id":10000000000000000000}`,    // 20 digits, within uint64
		`{"id":-18446744073709551615}`,   // 20 digits, a uint64's magnitude
		`{"phash":18446744073709551616}`, // one past uint64
		`{"phash":18446744073709551620}`, // 20 digits, last one over
		`{"phash":99999999999999999999}`, // 20 digits, well over
		`{"phash":100000000000000000000}`,
		`{"phash":-1}`, `{"phash":-0}`, `{"phash":018446744073709551615}`,
		`{"score":` + strconv.FormatUint(uint64(math.MaxInt)+1, 10) + `}`, // one past int
		`{"score":-` + strconv.FormatUint(uint64(math.MaxInt)+2, 10) + `}`,
		`{"id": 1}`, `{"id":1 }`, `{"id":1,}`, `{"id":1`,
		`{"has_image":TRUE}`, `{"has_image":1}`, `{"has_image":tru`,
		`{"subreddit":"a\u0062"}`, `{"subreddit":"caf\u00e9"}`, `{"subreddit":"café"}`,
		`{"subreddit":"a<b"}`, "{\"subreddit\":\"a\nb\"}", `{"subreddit":"open`,
		`{"timestamp":"2016-07-01T00:00:00+99:00"}`, // no such zone
		`{"timestamp":"2016-07-01T00:00:00\u005a"}`, // an escaped Z
		`{"timestamp":"2016-07-01 00:00:00Z"}`,
		`{"timestamp":"2016-02-30T00:00:00Z"}`, // no such day
		`{"timestamp":"2017-02-29T00:00:00Z"}`, // not a leap year
		`{"timestamp":"1900-02-29T00:00:00Z"}`, // nor is a century
		`{"timestamp":"2016-04-31T00:00:00Z"}`,
		`{"timestamp":"2016-13-01T00:00:00Z"}`,
		`{"timestamp":"2016-00-01T00:00:00Z"}`,
		`{"timestamp":"2016-07-00T00:00:00Z"}`,
		`{"timestamp":"2016-07-01T24:00:00Z"}`,
		`{"timestamp":"2016-07-01T00:60:00Z"}`,
		`{"timestamp":"2016-07-01T23:59:60Z"}`, // leap second
		`{"timestamp":"2016-07-01T00:00:00.Z"}`,
		`{"timestamp":"2016-07-01T00:00:00.5z"}`,
		`{"timestamp":"2016-07-01t00:00:00Z"}`,
		`{"timestamp":"-2016-07-01T00:00:00Z"}`,
		`{"timestamp":"2016-07-01T00:00:0aZ"}`,
		`{"timestamp":"2016-07-01T00:00:00"}`,
		`{"timestamp":"2016-07-01T00:00:00Z`,
		`{"timestamp":"20160-7-01T00:00:00Z"}`,
		`{"timestamp":null}`, `{"timestamp":0}`,
	} {
		var p Post
		if n, ok := new(PostParser).Parse([]byte(in), &p); ok {
			t.Errorf("%s: accepted (%d bytes, %+v), want declined", in, n, p)
		}
	}
}

// TestPostParserEdges: literals at the edges of the one-pass integer and
// timestamp readers parse to what json.Unmarshal makes of them, and a
// timestamp takes the UTC fast path exactly when it is in the form AppendPost
// writes — a tenth fraction digit or a zone offset goes to Time.UnmarshalJSON.
func TestPostParserEdges(t *testing.T) {
	for _, in := range []string{
		`{"id":0}`, `{"id":-0}`, `{"id":7}`, `{"id":-7}`,
		`{"id":9223372036854775807}`, `{"id":-9223372036854775808}`, // 19 digits
		`{"id":999999999999999999}`, `{"id":-1000000000000000000}`,
		`{"phash":0}`, `{"phash":9999999999999999999}`, // 19 digits
		`{"phash":10000000000000000000}`, `{"phash":18446744073709551615}`, // 20
		`{"score":` + strconv.Itoa(math.MaxInt) + `}`, `{"score":` + strconv.Itoa(math.MinInt) + `}`,
		`{"truth_meme":-0,"truth_root":-2147483648}`,
	} {
		checkParserAgrees(t, in)
	}

	for _, c := range []struct {
		stamp string
		fast  bool
	}{
		{"0000-01-01T00:00:00Z", true},
		{"9999-12-31T23:59:59.999999999Z", true},
		{"2000-02-29T00:00:00Z", true},
		{"2016-02-29T12:00:00Z", true},
		{"2016-07-01T00:00:00.120Z", true},
		{"2016-07-01T00:00:00.5Z", true},
		{"2016-07-01T00:00:00.12Z", true},
		{"2016-07-01T00:00:00.123Z", true},
		{"2016-07-01T00:00:00.1234Z", true},
		{"2016-07-01T00:00:00.12345Z", true},
		{"2016-07-01T00:00:00.123456Z", true},
		{"2016-07-01T00:00:00.1234567Z", true},
		{"2016-07-01T00:00:00.12345678Z", true},
		{"2016-07-01T00:00:00.123456789Z", true},
		{"2016-07-01T00:00:00.000000000Z", true},
		{"2016-07-01T00:00:00.1234567891Z", false}, // ten digits: truncated there
		{"2016-07-01T00:00:00+00:00", false},
		{"2016-07-01T00:00:00,5Z", false}, // time.Parse's leniency
		{"2016-07-01T0:00:00Z", false},
		{"2016-07-01T02:00:00+02:00", false},
		{"1900-02-29T00:00:00Z", false},
		{"2016-07-01T24:00:00Z", false},
	} {
		var got time.Time
		if fast := parseUTC([]byte(c.stamp), &got); fast != c.fast {
			t.Errorf("%s: fast path %v, want %v", c.stamp, fast, c.fast)
		}
		checkParserAgrees(t, `{"timestamp":"`+c.stamp+`"}`)
	}
}

// checkParserAgrees: Parse declines in, or consumes all of it and decodes
// what json.Unmarshal does; and it takes whatever json.Unmarshal takes.
func checkParserAgrees(t *testing.T, in string) {
	t.Helper()
	var got, want Post
	wantErr := json.Unmarshal([]byte(in), &want)
	n, ok := new(PostParser).Parse([]byte(in), &got)
	if ok != (wantErr == nil) {
		t.Errorf("%s: accepted=%v, json.Unmarshal error %v", in, ok, wantErr)
	}
	if ok && (n != len(in) || !reflect.DeepEqual(got, want)) {
		t.Errorf("%s: parsed %d bytes to %+v, want %d and %+v", in, n, got, len(in), want)
	}
}

// FuzzPostFields assembles a Post from fuzzed id, timestamp, phash and score
// literals: Parse declines it, or decodes the object at its front to what
// json.Unmarshal makes of the same bytes. A literal that closes the object
// early leaves the rest unread, as a post inside a body would.
func FuzzPostFields(f *testing.F) {
	f.Add("1", "2016-07-01T12:30:15Z", "18446744073709551615", "-17")
	f.Add("-0", "0000-01-01T00:00:00.1Z", "0", "0")
	f.Add("-9223372036854775808", "2016-02-29T00:00:00.123456789Z", "18446744073709551616", strconv.Itoa(math.MaxInt))
	f.Add("9223372036854775807", "1900-02-29T00:00:00Z", "99999999999999999999", strconv.Itoa(math.MinInt))
	f.Add("01", "2016-07-01T24:00:00Z", "-0", "1e3")
	f.Add("1.0", "2016-07-01T00:00:00.1234567891Z", "9999999999999999999", "2147483648")
	f.Add("0", "2016-07-01T02:00:00+02:00", "1", "-2147483649")
	f.Fuzz(func(t *testing.T, id, stamp, hash, score string) {
		in := fmt.Sprintf(`{"id":%s,"timestamp":"%s","phash":%s,"score":%s}`, id, stamp, hash, score)
		var got, want Post
		n, ok := new(PostParser).Parse([]byte(in), &got)
		if !ok {
			return
		}
		if err := json.Unmarshal([]byte(in[:n]), &want); err != nil {
			t.Fatalf("Parse accepted %s of %s, json.Unmarshal refuses it: %v", in[:n], in, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: parsed %s to %+v, want %+v", in, in[:n], got, want)
		}
	})
}

// TestPostParserInternsNames: a reused parser returns the same string for a
// repeated subreddit, and its table is bounded.
func TestPostParserInternsNames(t *testing.T) {
	var parser PostParser
	line := []byte(`{"subreddit":"dankmemes"}`)
	var a, b Post
	parser.Parse(line, &a)
	if allocs := testing.AllocsPerRun(100, func() { parser.Parse(line, &b) }); allocs != 0 {
		t.Errorf("re-parsing a seen name allocates %v times", allocs)
	}
	if a.Subreddit != "dankmemes" || b.Subreddit != a.Subreddit {
		t.Fatalf("parsed %q and %q", a.Subreddit, b.Subreddit)
	}
	long := []byte(`{"subreddit":"` + strings.Repeat("x", internMaxLen+1) + `"}`)
	if _, ok := parser.Parse(long, &a); !ok || len(parser.names) != 1 {
		t.Errorf("a %d-byte name: ok=%v, table holds %d names, want it left out", internMaxLen+1, ok, len(parser.names))
	}
	for i := 0; i < 2*internMaxNames; i++ {
		parser.Parse([]byte(`{"subreddit":"r`+strings.Repeat("y", i%7)+string(rune('0'+i%10))+strings.Repeat("z", i/10)+`"}`), &a)
	}
	if len(parser.names) > internMaxNames {
		t.Errorf("intern table grew to %d names, bound is %d", len(parser.names), internMaxNames)
	}
}

// TestSaveMatchesJSONEncoder: posts.jsonl is byte-identical to the
// json.Encoder stream Save used to write.
func TestSaveMatchesJSONEncoder(t *testing.T) {
	ds, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds.Posts = append(ds.Posts, codecPosts()[1], Post{Subreddit: `<&>`, Community: Reddit})
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "posts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i := range ds.Posts {
		if err := enc.Encode(&ds.Posts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("posts.jsonl differs from the json.Encoder stream")
	}

	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Posts, ds.Posts) {
		t.Fatal("Load(Save(posts)) != posts")
	}

	ds.Posts = []Post{{Timestamp: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}}
	if err := ds.Save(t.TempDir()); err == nil || !strings.Contains(err.Error(), "encoding post 0") {
		t.Fatalf("saving a year-10000 post: %v, want an encoding error", err)
	}
}

// TestReadPostsFallsBackToJSON: a stream json.Decoder reads but the fast path
// does not — whitespace, several values on a line, reordered keys, escapes, a
// zone offset, no final newline, a line longer than the reader's buffer —
// loads to exactly what json.Decoder alone produces, wherever in the stream
// the first such line sits; and json.Decoder's errors come through.
func TestReadPostsFallsBackToJSON(t *testing.T) {
	canonical := `{"id":1,"community":0,"timestamp":"2016-07-01T00:00:00Z","has_image":true,"phash":5,"truth_meme":-1,"truth_root":-1}`
	odd := []string{
		`{"community":1,"id":2}`,
		` {"id":3, "community":2}`,
		`{"id":4,"community":3}{"id":5,"community":4}`,
		"",
		`{"id":6,"community":1,"subreddit":"caf\u00e9"}`,
		`{"id":7,"community":1,"timestamp":"2016-07-01T00:00:00+02:00"}`,
		`{"id":8,"community":1,"subreddit":"` + strings.Repeat("s", 5000) + `"}`,
		"{\n\"id\":9,\n\"community\":0\n}",
	}
	for at := 0; at <= len(odd); at++ {
		lines := []string{canonical, canonical}
		lines = append(lines, odd[:at]...)
		lines = append(lines, canonical)
		lines = append(lines, odd[at:]...)
		for _, tail := range []string{"\n", ""} {
			stream := strings.Join(lines, "\n") + tail
			want, err := decodePosts(nil, json.NewDecoder(strings.NewReader(stream)))
			if err != nil {
				t.Fatal(err)
			}
			// A 4 KB reader buffer makes the 5,000-byte line overflow it.
			got, err := readPosts(bufio.NewReaderSize(strings.NewReader(stream), 4096))
			if err != nil {
				t.Fatalf("odd lines from %d: %v", at, err)
			}
			if len(got) != len(lines) || !reflect.DeepEqual(got, want) {
				t.Fatalf("odd lines from %d: read %d posts, want %d equal to json.Decoder's", at, len(got), len(lines))
			}
		}
	}

	for _, bad := range []string{
		canonical + "\ngarbage\n",
		canonical + "garbage\n",
		canonical + "\n" + `{"id":1.5}` + "\n",
		canonical + "\n" + `{"id":1,"community":9}` + "\n",
		`{"id":1,"community":-1}` + "\n",
	} {
		_, wantErr := decodePosts(nil, json.NewDecoder(strings.NewReader(bad)))
		_, err := readPosts(bufio.NewReader(strings.NewReader(bad)))
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("%q: error %v, want %v", bad, err, wantErr)
		}
	}
}
