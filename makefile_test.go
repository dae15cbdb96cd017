package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// raceRun matches one `go test -run '<pattern>' <package>` recipe line.
var raceRun = regexp.MustCompile(`-run '([^']*)'\s+(\./\S+)`)

// testFunc matches a top-level test function declaration.
var testFunc = regexp.MustCompile(`(?m)^func (Test\w*)\(`)

// TestMakeRaceRunPatterns checks that every alternative in the `race`
// target's -run patterns matches a test of the package it runs: an
// alternative that matches nothing would pass silently.
func TestMakeRaceRunPatterns(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(mk), "\nrace:\n")
	if !ok {
		t.Fatal("Makefile has no race target")
	}
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	runs := raceRun.FindAllStringSubmatch(recipe, -1)
	if len(runs) == 0 {
		t.Fatal("the race target has no -run pattern")
	}
	for _, run := range runs {
		pattern, pkg := run[1], run[2]
		files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Errorf("race: package %s has no test files", pkg)
			continue
		}
		var tests []string
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				tests = append(tests, m[1])
			}
		}
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("race: %s: alternative %q does not compile: %v", pkg, alt, err)
				continue
			}
			matched := false
			for _, name := range tests {
				if re.MatchString(name) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("race: %s: -run alternative %q matches no test", pkg, alt)
			}
		}
	}
}
