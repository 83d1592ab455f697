package lint

import "testing"

func TestJSONWire(t *testing.T) {
	RunAnalyzerTest(t, JSONWire, "example.com/memes/internal/server")
}

func TestJSONWireIngest(t *testing.T) {
	RunAnalyzerTest(t, JSONWire, "example.com/wire/internal/ingest")
}

// TestJSONWireScope pins the packages jsonwire polices.
func TestJSONWireScope(t *testing.T) {
	for path, want := range map[string]bool{
		"github.com/memes-pipeline/memes/internal/server":    true,
		"github.com/memes-pipeline/memes/internal/cli":       true,
		"github.com/memes-pipeline/memes/internal/declog":    true,
		"github.com/memes-pipeline/memes/internal/ingest":    true,
		"github.com/memes-pipeline/memes/internal/ingestion": false,
		"github.com/memes-pipeline/memes/internal/pipeline":  false,
	} {
		if got := inJSONWireScope(path); got != want {
			t.Errorf("inJSONWireScope(%q) = %v, want %v", path, got, want)
		}
	}
}
