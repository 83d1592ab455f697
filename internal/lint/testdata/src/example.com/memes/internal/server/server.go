// Package server is the jsonwire fixture: structs reaching encoding/json
// (directly or transitively through fields) must tag every exported field
// with an explicit snake_case name; structs never serialized are exempt.
package server

import (
	"bytes"
	"encoding/json"
	"net/http"
)

type matchResponse struct {
	ClusterID int64       `json:"cluster_id"`
	Medoid    string      `json:"medoid"`
	Missing   int         // want "field matchResponse.Missing is serialized by encoding/json but has no json tag"
	BadName   int         `json:"BadName"` // want `field matchResponse.BadName has json name "BadName"`
	Skipped   int         `json:"-"`
	Nested    nestedStats `json:"nested"`
	internal  int
}

type nestedStats struct {
	Count int // want "field nestedStats.Count is serialized by encoding/json but has no json tag"
}

type notWire struct {
	Plain int // ok: never serialized, tags would promise a wire format that does not exist
}

func encode(v matchResponse) ([]byte, error) {
	return json.Marshal(v)
}

func decode(data []byte) (matchResponse, error) {
	var v matchResponse
	err := json.Unmarshal(data, &v)
	return v, err
}

var _ = notWire{}

// Hand-rolled response writes: the envelope check fires on http.Error, on
// encoders attached straight to a ResponseWriter, and on raw Writes to one,
// everywhere except the sanctioned helpers writeJSON and writeRaw.

func handleBad(w http.ResponseWriter) {
	http.Error(w, "boom", 500)                  // want "http.Error writes a bare text body outside the JSON error envelope"
	json.NewEncoder(w).Encode(map[string]any{}) // want "json.NewEncoder over an http.ResponseWriter bypasses writeJSON"
	w.Write([]byte(`{"ok":true}`))              // want "Write on an http.ResponseWriter bypasses the shared helpers"
}

func writeJSON(w http.ResponseWriter, v any) {
	json.NewEncoder(w).Encode(v) // ok: the one sanctioned encoder site
	w.Write(nil)                 // want "Write on an http.ResponseWriter bypasses the shared helpers"
}

func writeRaw(w http.ResponseWriter, body []byte) {
	w.Write(body)                // ok: the one sanctioned raw-bytes site
	json.NewEncoder(w).Encode(0) // want "json.NewEncoder over an http.ResponseWriter bypasses writeJSON"
}

// trackingWriter wraps a ResponseWriter; its own Write forwarding is not a
// handler writing a body.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackingWriter) Write(b []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(b) // ok: a wrapper's Write method
}

func (t *trackingWriter) flushBad(b []byte) {
	t.ResponseWriter.Write(b) // want "Write on an http.ResponseWriter bypasses the shared helpers"
	t.Write(b)                // want "Write on an http.ResponseWriter bypasses the shared helpers"
}

func writeElsewhere(buf *bytes.Buffer, body []byte) {
	buf.Write(body) // ok: not a ResponseWriter
}

func encodeElsewhere(v matchResponse) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil { // ok: not a ResponseWriter
		return nil, err
	}
	return buf.Bytes(), nil
}
