package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// suiteSize pins the analyzer count: growing the suite is deliberate —
// update this constant together with the new analyzer's fixtures.
const suiteSize = 4

func TestRegistryPinned(t *testing.T) {
	as := Analyzers()
	if len(as) != suiteSize {
		t.Fatalf("Analyzers() returned %d analyzers, want %d; update suiteSize alongside the suite", len(as), suiteSize)
	}
	seen := make(map[string]bool)
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing a name, doc or run function", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// Every analyzer must ship analysistest fixtures: a directory of the
// analyzer's name under testdata/src with at least one fixture file.
func TestEveryAnalyzerHasFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		dir := filepath.Join("testdata", "src", a.Name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("analyzer %s has no fixture directory %s: %v", a.Name, dir, err)
			continue
		}
		goFiles := 0
		for _, e := range entries {
			if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
				goFiles++
			}
		}
		if goFiles == 0 {
			t.Errorf("fixture directory %s has no Go files", dir)
		}
	}
}
