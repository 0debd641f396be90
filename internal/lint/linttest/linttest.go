// Package linttest is the analysistest-style harness for the repo's
// custom analyzers: it type-checks a testdata fixture package, runs one
// analyzer over it (through the same suppression-filtering driver
// cmd/cfpqlint uses, so //lint:allow fixtures exercise the real code
// path), and compares the surviving diagnostics against the fixture's
// `// want "regexp"` comments line by line.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cfpq/internal/lint"
)

// moduleRoot locates the module directory so fixtures resolve imports
// against the same export data as the real tree.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		t.Fatal("linttest: not inside a module")
	}
	return filepath.Dir(gomod)
}

var (
	exportOnce sync.Once
	exportErr  error
	exports    map[string]string
)

// exportData builds (once per test process) the import-path -> export
// file map covering the whole standard library plus the module's own
// packages, so fixtures may import either.
func exportData(t *testing.T) map[string]string {
	t.Helper()
	exportOnce.Do(func() {
		exports, exportErr = lint.ExportData(moduleRoot(t), "./...", "std")
	})
	if exportErr != nil {
		t.Fatalf("linttest: building export data: %v", exportErr)
	}
	return exports
}

// want is one expected diagnostic.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// Run loads the fixture package at dir (conventionally
// testdata/src/<name>, relative to the test), runs the analyzer over it
// with suppression filtering, and checks the diagnostics against the
// fixture's want comments.
func Run(t *testing.T, analyzer *lint.Analyzer, dir string) {
	t.Helper()
	fset := token.NewFileSet()
	files, wants := parseFixture(t, fset, dir)
	imp := lint.NewImporter(fset, exportData(t))
	tpkg, info, err := lint.CheckFiles(fset, imp, "fixture/"+filepath.Base(dir), files)
	if err != nil {
		t.Fatalf("linttest: fixture %s does not type-check: %v", dir, err)
	}
	pkg := &lint.Package{PkgPath: tpkg.Path(), Dir: dir, Files: files, Types: tpkg, Info: info}
	diags, err := lint.RunAnalyzers([]*lint.Package{pkg}, fset, []*lint.Analyzer{analyzer})
	if err != nil {
		t.Fatalf("linttest: running %s on %s: %v", analyzer.Name, dir, err)
	}
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// claim marks the first unmatched want on the diagnostic's line whose
// pattern matches the message.
func claim(wants []*want, d lint.Diagnostic) bool {
	for _, w := range wants {
		if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}

// parseFixture parses every .go file of the fixture directory and
// extracts its want comments.
func parseFixture(t *testing.T, fset *token.FileSet, dir string) ([]*ast.File, []*want) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatalf("linttest: no fixture files in %s", dir)
	}
	var files []*ast.File
	var wants []*want
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		files = append(files, f)
		ws, err := fileWants(fset, f)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		wants = append(wants, ws...)
	}
	return files, wants
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// fileWants extracts `// want "re" ["re" ...]` expectations from one file.
func fileWants(fset *token.FileSet, f *ast.File) ([]*want, error) {
	var wants []*want
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			patterns, err := splitQuoted(m[1])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err)
			}
			for _, p := range patterns {
				re, err := regexp.Compile(p)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, p, err)
				}
				wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: p})
			}
		}
	}
	return wants, nil
}

// splitQuoted parses a sequence of Go-quoted strings ("..." or `...`).
func splitQuoted(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("expected quoted pattern at %q", s)
		}
		// Find the end of this quoted token by scanning for the closing
		// quote (double-quoted strings may contain escaped quotes).
		end := -1
		if s[0] == '`' {
			if i := strings.IndexByte(s[1:], '`'); i >= 0 {
				end = i + 1
			}
		} else {
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated pattern in %q", s)
		}
		tok := s[:end+1]
		unq, err := strconv.Unquote(tok)
		if err != nil {
			return nil, fmt.Errorf("unquoting %q: %v", tok, err)
		}
		out = append(out, unq)
		s = strings.TrimSpace(s[end+1:])
	}
	return out, nil
}
