package kv3d

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsMatchDeclaredFunctions keeps the workflow's test
// selections live: every |-separated alternative of a -run, -bench or
// -fuzz pattern on a `go test` line of .github/workflows/ci.yml must
// match a function of the kind that flag selects, declared in that
// line's packages. A renamed or deleted test otherwise leaves an
// alternative that selects nothing, and the CI step it guards passes
// without running it. '^$' and NONE select nothing on purpose.
func TestCIPatternsMatchDeclaredFunctions(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string][]string{"run": {"Test", "Fuzz"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}
	declared := map[string][]string{} // package dir -> test function names
	lines := 0
	for n, line := range strings.Split(string(ci), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		lines++
		patterns, dirs := parseGoTest(t, cmd)
		if len(patterns) == 0 {
			continue
		}
		var funcs []string
		for _, dir := range dirs {
			if _, ok := declared[dir]; !ok {
				declared[dir] = testFuncs(t, dir)
			}
			funcs = append(funcs, declared[dir]...)
		}
		for flag, pattern := range patterns {
			for _, alt := range strings.Split(pattern, "|") {
				if alt == "^$" || alt == "NONE" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: -%s alternative %q: %v", n+1, flag, alt, err)
					continue
				}
				if !matchesAny(re, kinds[flag], funcs) {
					t.Errorf("ci.yml:%d: -%s alternative %q matches no %s function in %v",
						n+1, flag, alt, strings.Join(kinds[flag], "/"), dirs)
				}
			}
		}
	}
	if lines == 0 {
		t.Fatal("found no go test line in ci.yml")
	}
}

func matchesAny(re *regexp.Regexp, prefixes, funcs []string) bool {
	for _, fn := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) && re.MatchString(fn) {
				return true
			}
		}
	}
	return false
}

// parseGoTest reads the arguments of one `go test` command: the -run,
// -bench and -fuzz patterns by flag name, and the package directories
// (./... expanded; none means the current one).
func parseGoTest(t *testing.T, cmd string) (patterns map[string]string, dirs []string) {
	t.Helper()
	patterns = map[string]string{}
	valued := map[string]bool{"run": true, "bench": true, "fuzz": true, "count": true, "benchtime": true, "fuzztime": true, "timeout": true, "cpu": true}
	words := shellWords(cmd)
	for i := 0; i < len(words); i++ {
		w := words[i]
		switch {
		case w == "&&" || w == "||" || w == "|" || w == ";":
			i = len(words)
		case strings.HasPrefix(w, "-"):
			name, val, hasVal := strings.Cut(strings.TrimLeft(w, "-"), "=")
			if !hasVal && valued[name] && i+1 < len(words) {
				i++
				val = words[i]
			}
			switch name {
			case "run", "bench", "fuzz":
				patterns[name] = val
			}
		case w == "./...":
			dirs = append(dirs, goPackageDirs(t)...)
		default:
			dirs = append(dirs, filepath.Clean(w))
		}
	}
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	return patterns, dirs
}

// shellWords splits a command line into words, honouring the single and
// double quotes the workflow's commands use.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	var quote byte
	inWord := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			w.WriteByte(c)
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				words = append(words, w.String())
				w.Reset()
				inWord = false
			}
		default:
			w.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}

// goPackageDirs lists the directories ./... names: every directory with
// a .go file, skipping testdata and names starting with "." or "_".
func goPackageDirs(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if dir := filepath.Dir(path); !d.IsDir() && strings.HasSuffix(name, ".go") && !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// testFuncs returns the names of the top-level functions declared in
// dir's _test.go files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}
