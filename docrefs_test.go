package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	docSpan    = regexp.MustCompile("`[^`\n]+`")
	docTestRef = regexp.MustCompile(`\b((?:Test|Benchmark)[A-Za-z0-9_]*)(\*?)`)
	testFunc   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)[A-Za-z0-9_]*)\(`)
)

// TestDocsNameRealTests keeps the documentation honest: every backticked
// Test…/Benchmark… name in README.md, DESIGN.md and EXPERIMENTS.md must
// be a function in some _test.go file of the repository. A trailing `*`
// makes the name a prefix (`BenchmarkFig1*`).
func TestDocsNameRealTests(t *testing.T) {
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			funcs[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(name string, prefix bool) bool {
		if !prefix {
			return funcs[name]
		}
		for f := range funcs {
			if strings.HasPrefix(f, name) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range docSpan.FindAllString(string(text), -1) {
			for _, m := range docTestRef.FindAllStringSubmatch(span, -1) {
				if !exists(m[1], m[2] == "*") {
					t.Errorf("%s names %s, which no _test.go defines", doc, span)
				}
			}
		}
	}
}
