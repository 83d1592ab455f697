package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"github.com/memes-pipeline/memes/internal/lint"
)

var testDiags = []lint.Diagnostic{
	{
		Analyzer: "detorder",
		Pos:      token.Position{Filename: "internal/pipeline/build.go", Line: 42, Column: 3},
		Message:  "range over map fringe: iteration order may leak into output",
	},
	{
		Analyzer: "ctxflow",
		Pos:      token.Position{Filename: "internal/server/server.go", Line: 7, Column: 1},
		Message:  "naked go statement outside internal/parallel",
	},
}

func TestEmitJSON(t *testing.T) {
	var buf bytes.Buffer
	emit(&buf, "json", testDiags)

	var report jsonReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if report.Version != version {
		t.Errorf("version = %q, want %q", report.Version, version)
	}
	if len(report.Findings) != len(testDiags) {
		t.Fatalf("got %d findings, want %d", len(report.Findings), len(testDiags))
	}
	first := report.Findings[0]
	if first.Analyzer != "detorder" || first.File != "internal/pipeline/build.go" || first.Line != 42 || first.Column != 3 {
		t.Errorf("first finding = %+v, want detorder at internal/pipeline/build.go:42:3", first)
	}
	if !strings.Contains(first.Message, "iteration order") {
		t.Errorf("first finding message = %q, want the analyzer message preserved", first.Message)
	}
	// The wire uses stable snake_case keys CI consumers can rely on.
	for _, key := range []string{`"analyzer"`, `"file"`, `"line"`, `"column"`, `"message"`, `"findings"`, `"version"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("JSON output missing key %s:\n%s", key, buf.String())
		}
	}
}

func TestEmitJSONNoFindings(t *testing.T) {
	var buf bytes.Buffer
	emit(&buf, "json", nil)

	var report jsonReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if report.Findings == nil || len(report.Findings) != 0 {
		t.Errorf("findings = %#v, want present-but-empty array", report.Findings)
	}
	if !strings.Contains(buf.String(), `"findings": []`) {
		t.Errorf("empty report must serialize findings as [], not null:\n%s", buf.String())
	}
}

func TestEmitText(t *testing.T) {
	var buf bytes.Buffer
	emit(&buf, "text", testDiags)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	want := "internal/pipeline/build.go:42:3: detorder: range over map fringe: iteration order may leak into output"
	if lines[0] != want {
		t.Errorf("line 1 = %q, want %q", lines[0], want)
	}
}
