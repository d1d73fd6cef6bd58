package repro_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// operatorDocs returns every root-level markdown document. The glob —
// rather than a hand-kept list — means a new doc is link-checked the
// moment it lands, with no test edit to forget.
func operatorDocs(t *testing.T) []string {
	t.Helper()
	docs, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) < 6 {
		t.Fatalf("glob found only %d root docs (%v); checkout broken?", len(docs), docs)
	}
	return docs
}

var (
	// [text](target) markdown links; external and intra-page links are
	// checked for scheme only.
	mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	// `some/path.md` or `file.md` backtick references to sibling docs.
	mdBacktick = regexp.MustCompile("`([A-Za-z0-9_./-]+\\.md)`")
	// `dir/file.go`, `dir/file.go:42` or `dir/file.go:42-57` backtick
	// references to repo files: a slash, a lowercase extension and an
	// optional line or line-range suffix.
	pathBacktick = regexp.MustCompile("`([A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)*/[A-Za-z0-9_-][A-Za-z0-9_.-]*\\.[a-z][a-z0-9]*)(?::[0-9]+(?:-[0-9]+)?)?`")
)

// TestDocLinksResolve fails when an operator document links or refers to
// a repo path that does not exist. CHANGES.md is a history that names
// files later deleted, so its code paths are not resolved.
func TestDocLinksResolve(t *testing.T) {
	for _, doc := range operatorDocs(t) {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		text := string(body)
		for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "#") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s links to %q which does not exist", doc, m[1])
			}
		}
		for _, m := range mdBacktick.FindAllStringSubmatch(text, -1) {
			if _, err := os.Stat(filepath.FromSlash(m[1])); err != nil {
				t.Errorf("%s refers to `%s` which does not exist", doc, m[1])
			}
		}
		if doc == "CHANGES.md" {
			continue
		}
		for _, m := range pathBacktick.FindAllStringSubmatch(text, -1) {
			if _, err := os.Stat(filepath.FromSlash(m[1])); err != nil {
				t.Errorf("%s refers to %s, but %s does not exist", doc, m[0], m[1])
			}
		}
	}
}
