package pmutrust_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designRef matches a Go comment's citation of a design document at the
// repository root, with the section it names, if any.
var designRef = regexp.MustCompile(`\b(DESIGN|EXPERIMENTS)\.md(?: (§\d+))?`)

// TestDesignReferencesResolve fails when a Go file cites DESIGN.md or
// EXPERIMENTS.md and the file is missing, or cites a DESIGN.md section
// ("DESIGN.md §2") that has no heading there.
func TestDesignReferencesResolve(t *testing.T) {
	docs := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		// This file names the documents only to match them.
		if d.IsDir() || !strings.HasSuffix(path, ".go") || path == "docs_test.go" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range designRef.FindAllStringSubmatch(line, -1) {
				doc := m[1] + ".md"
				text, ok := docs[doc]
				if !ok {
					b, err := os.ReadFile(doc)
					if err != nil {
						t.Errorf("%s:%d cites %s, which is missing: %v", path, i+1, doc, err)
					}
					text = string(b)
					docs[doc] = text
				}
				if m[2] != "" && text != "" && !strings.Contains(text, "\n## "+m[2]+" ") {
					t.Errorf("%s:%d cites %s %s, which has no such section heading", path, i+1, doc, m[2])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Error("no Go file cites DESIGN.md; the walk found nothing to check")
	}
}
