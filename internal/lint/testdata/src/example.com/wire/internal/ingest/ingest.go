// Package ingest is the jsonwire fixture for the streaming-ingest scope: the
// real internal/ingest declares the wire names of the server's /v1/statsz
// ingest block on its Stats type, so a struct there that declares a json tag
// is a wire struct and every exported field needs an explicit snake_case
// name. (It lives apart from the detorder fixture of the same import-path
// suffix, whose expectations belong to another analyzer.)
package ingest

type Stats struct {
	Ingested   int64  `json:"ingested"`
	Seq        uint64 `json:"seq"`
	Reclusters int64  // want "field Stats.Reclusters is serialized by encoding/json but has no json tag"
	TornTails  int64  `json:"tornTails"` // want `field Stats.TornTails has json name "tornTails"`
	pending    int
}

type Receipt struct {
	Accepted int // ok: never serialized and declares no json tag
}
