package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// danglingDocs lists the Markdown files Go comments cite that do not exist
// yet. The list may only shrink: a new dangling name fails the test, and
// so does an entry whose file now exists or that no comment cites any
// more, so each entry goes when its file is written.
var danglingDocs = map[string]bool{
	"DESIGN.md":      true,
	"EXPERIMENTS.md": true,
}

// mdName matches a Markdown file name, with or without a directory.
var mdName = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// TestDocReferencesExist checks that every Markdown file named in a Go
// comment exists, relative to the repository root or to the directory of
// the file that names it.
func TestDocReferencesExist(t *testing.T) {
	fset := token.NewFileSet()
	cited := make(map[string]int)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, name := range mdName.FindAllString(cg.Text(), -1) {
				if exists(name) || exists(filepath.Join(filepath.Dir(path), name)) {
					continue
				}
				if danglingDocs[name] {
					cited[name]++
					continue
				}
				t.Errorf("%s: comment names %s, which does not exist", fset.Position(cg.Pos()), name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var stale []string
	for name := range danglingDocs {
		if cited[name] == 0 {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("%s is allowed to dangle, but no comment cites a missing %s any more: drop it from danglingDocs", name, name)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
