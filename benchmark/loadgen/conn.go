//go:build linux

// Package loadgen is the load generator behind cmd/memeload: a minimal
// keep-alive HTTP/1.1 client that writes pre-encoded request bytes and
// parses just enough of the response to hand the status and body to a
// checker, plus the closed-loop and open-loop drivers that time every
// request and the percentile rules the benchmark reports under.
//
// The client is hand-rolled rather than net/http because the generator
// shares the machine's cores with the server it measures: every
// microsecond of client-side header maps and connection-pool bookkeeping
// is CPU taken from the system under test, and it would move the numbers
// for reasons that have nothing to do with the server.
package loadgen

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// EncodeRequest renders one HTTP/1.1 request as the exact bytes the
// generator puts on the wire. A nil body renders a body-less request.
func EncodeRequest(method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: memeserve\r\n", method, path)
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// Conn is one keep-alive connection. It is not safe for concurrent use: a
// connection belongs to the one client goroutine that drives it.
type Conn struct {
	c    net.Conn
	r    *bufio.Reader
	body []byte // response body scratch, reused across requests
}

// Dial opens a connection to addr (host:port).
func Dial(addr string) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Conn{c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

// Close closes the connection.
func (c *Conn) Close() error { return c.c.Close() }

// Do writes one encoded request and reads its response. The returned body
// aliases the connection's scratch buffer and is valid until the next Do.
// deadline bounds the whole exchange so a wedged server fails the request
// instead of hanging the run.
func (c *Conn) Do(wire []byte, deadline time.Time) (status int, body []byte, err error) {
	if err := c.c.SetDeadline(deadline); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(wire); err != nil {
		return 0, nil, err
	}
	return c.readResponse()
}

var (
	errMalformed = errors.New("loadgen: malformed HTTP response")
	hdrLength    = []byte("content-length:")
	hdrChunked   = []byte("transfer-encoding: chunked")
)

func (c *Conn) readResponse() (int, []byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, errMalformed
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, errMalformed
	}
	length, chunked := -1, false
	for {
		line, err = c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		lower := bytes.ToLower(bytes.TrimRight(line, "\r\n"))
		switch {
		case bytes.HasPrefix(lower, hdrLength):
			length, err = strconv.Atoi(string(bytes.TrimSpace(lower[len(hdrLength):])))
			if err != nil || length < 0 {
				return 0, nil, errMalformed
			}
		case bytes.Equal(lower, hdrChunked):
			chunked = true
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.r.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseUint(string(bytes.TrimRight(line, "\r\n")), 16, 31)
			if err != nil {
				return 0, nil, errMalformed
			}
			if n == 0 {
				// No trailers are ever sent; the terminating blank line.
				if _, err := c.r.ReadSlice('\n'); err != nil {
					return 0, nil, err
				}
				break
			}
			if err := c.readBody(int(n)); err != nil {
				return 0, nil, err
			}
			if _, err := c.r.Discard(2); err != nil {
				return 0, nil, err
			}
		}
	case length >= 0:
		if err := c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errMalformed
	}
	return status, c.body, nil
}

// readBody appends exactly n bytes of the stream to the body scratch.
func (c *Conn) readBody(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		grown := make([]byte, at, at+n+at/2)
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.r, c.body[at:])
	return err
}
