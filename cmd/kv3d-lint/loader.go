package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// finding is one diagnostic produced by a check.
type finding struct {
	pos   token.Position
	check string
	msg   string
}

// parsedFile pairs a parsed file with its path on disk.
type parsedFile struct {
	path string
	ast  *ast.File
}

// pkgInfo is one package in the module under analysis.
type pkgInfo struct {
	path    string // import path, e.g. kv3d/internal/sim
	dir     string
	files   []*parsedFile
	imports map[string]bool // module-internal imports only

	// depOnly marks packages parsed and type-checked only because a
	// target package imports them; checks never report findings in them.
	depOnly bool
	// types is the checked package object.
	types *types.Package
}

// analysis is the loaded module plus the policy configuration shared by
// all checks.
type analysis struct {
	fset   *token.FileSet
	module string
	pkgs   map[string]*pkgInfo

	// info holds the resolved go/types facts for every file of every
	// package in pkgs.
	info *types.Info

	// declOf lazily indexes every loaded function declaration by its
	// resolved object (see funcDecls).
	declOf map[*types.Func]*ast.FuncDecl

	// simRoots are the packages whose (transitive) imports must be
	// deterministic; allow exempts live-server packages that sit outside
	// the simulation even when the graph reaches them.
	simRoots []string
	allow    map[string]bool
}

// defaultSimRoots lists the simulation entry points, relative to the
// module path. Every package one of these imports must obey the
// determinism contract.
var defaultSimRoots = []string{
	"internal/sim",
	"internal/serversim",
	"internal/clustersim",
	"internal/experiments",
}

// defaultAllow lists real-server packages that are reachable from the
// sim roots (experiments drive the live store too) but legitimately
// touch wall clocks: they never run inside a simulation.
var defaultAllow = []string{
	"internal/kvserver",
	"internal/kvclient",
	"internal/server",
}

// load parses every package matched by the patterns under root, builds
// the module-internal import graph and type-checks the whole module
// (targets plus their internal dependencies): stdlib and other external
// dependencies are resolved from compiler export data harvested via
// `go list -deps -export`, and the module's own packages are
// type-checked from source in import order. All checks then work on
// types.Object facts instead of identifier spellings.
func load(root string, patterns []string) (*analysis, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(absRoot)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(absRoot, patterns)
	if err != nil {
		return nil, err
	}

	a := &analysis{
		fset:   token.NewFileSet(),
		module: module,
		pkgs:   map[string]*pkgInfo{},
		allow:  map[string]bool{},
	}
	for _, r := range defaultSimRoots {
		a.simRoots = append(a.simRoots, module+"/"+r)
	}
	for _, al := range defaultAllow {
		a.allow[module+"/"+al] = true
	}

	for _, dir := range dirs {
		pkg, err := parsePackage(a.fset, absRoot, module, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			a.pkgs[pkg.path] = pkg
		}
	}
	if err := a.loadModuleDeps(absRoot); err != nil {
		return nil, err
	}
	if err := a.typeCheck(absRoot); err != nil {
		return nil, err
	}
	return a, nil
}

// loadModuleDeps parses, transitively, every module-internal package a
// target imports but the patterns did not match. They are type-checked
// (imports must resolve) but never linted.
func (a *analysis) loadModuleDeps(root string) error {
	var queue []string
	for _, pkg := range a.pkgs {
		for imp := range pkg.imports {
			queue = append(queue, imp)
		}
	}
	sort.Strings(queue)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if _, ok := a.pkgs[p]; ok {
			continue
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(p, a.module), "/")
		dir := filepath.Join(root, filepath.FromSlash(rel))
		pkg, err := parsePackage(a.fset, root, a.module, dir)
		if err != nil {
			return fmt.Errorf("loading dependency %s: %w", p, err)
		}
		if pkg == nil {
			return fmt.Errorf("dependency %s has no Go files in %s", p, dir)
		}
		pkg.depOnly = true
		a.pkgs[p] = pkg
		for imp := range pkg.imports {
			queue = append(queue, imp)
		}
	}
	return nil
}

// typeCheck resolves the whole loaded module with go/types. External
// (stdlib) imports come from compiler export data located by
// `go list -deps -export`; module-internal packages are checked from
// their parsed sources in topological import order, so every ast.Ident
// in every loaded file has a types.Object behind it.
func (a *analysis) typeCheck(root string) error {
	exports, err := harvestExportData(root)
	if err != nil {
		return err
	}
	std := importer.ForCompiler(a.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (not in `go list -deps` of the module?)", path)
		}
		return os.Open(file)
	})
	a.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	order, err := a.topoOrder()
	if err != nil {
		return err
	}
	checked := map[string]*types.Package{}
	imp := &moduleImporter{a: a, checked: checked, std: std}
	for _, path := range order {
		pkg := a.pkgs[path]
		var files []*ast.File
		for _, pf := range pkg.files {
			files = append(files, pf.ast)
		}
		var firstErr error
		cfg := types.Config{
			Importer: imp,
			Error: func(err error) {
				if firstErr == nil {
					firstErr = err
				}
			},
		}
		tpkg, _ := cfg.Check(path, a.fset, files, a.info)
		if firstErr != nil {
			return fmt.Errorf("type-checking %s: %v", path, firstErr)
		}
		pkg.types = tpkg
		checked[path] = tpkg
	}
	return nil
}

// moduleImporter resolves imports during type-checking: "unsafe" maps
// to the builtin package, module-internal paths must already have been
// checked (topoOrder guarantees it), everything else reads gc export
// data through the harvested lookup table.
type moduleImporter struct {
	a       *analysis
	checked map[string]*types.Package
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	if path == m.a.module || strings.HasPrefix(path, m.a.module+"/") {
		return nil, fmt.Errorf("module package %s not yet type-checked (import cycle?)", path)
	}
	return m.std.Import(path)
}

// harvestExportData asks the go tool where the compiled export data of
// every dependency of the module lives (building it into the cache if
// needed). This keeps the linter stdlib-only: no x/tools, just one
// subprocess that any environment able to build the repo already has.
func harvestExportData(root string) (map[string]string, error) {
	cmd := exec.Command("go", "list", "-e", "-deps", "-export", "-f", "{{.ImportPath}}\t{{.Export}}", "./...")
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list -deps -export failed: %v\n%s",
			err, stderr.String())
	}
	out := map[string]string{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		path, file, ok := strings.Cut(strings.TrimSpace(line), "\t")
		if ok && file != "" {
			out[path] = file
		}
	}
	return out, nil
}

// topoOrder sorts the loaded module packages so every package appears
// after all module-internal packages it imports.
func (a *analysis) topoOrder() ([]string, error) {
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var order []string
	var paths []string
	for p := range a.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var visit func(string) error
	visit = func(p string) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("module import cycle through %s", p)
		case 2:
			return nil
		}
		state[p] = 1
		var imps []string
		for imp := range a.pkgs[p].imports {
			imps = append(imps, imp)
		}
		sort.Strings(imps)
		for _, imp := range imps {
			if _, ok := a.pkgs[imp]; ok {
				if err := visit(imp); err != nil {
					return err
				}
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// sortedPkgs returns the non-dependency packages in path order, so
// checks that keep cross-function state iterate deterministically.
func (a *analysis) sortedPkgs() []*pkgInfo {
	var out []*pkgInfo
	for _, p := range a.pkgs {
		if !p.depOnly {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// modulePath reads the module directive from go.mod at root.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("reading go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s/go.mod", root)
}

// expandPatterns resolves "./...", "./dir/..." and plain directory
// arguments into a sorted list of directories containing Go files.
func expandPatterns(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(root, base)
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" || name == "node_modules") {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// parsePackage parses the non-test Go files in dir, returning nil if the
// directory holds no Go package.
func parsePackage(fset *token.FileSet, root, module, dir string) (*pkgInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("no such directory: %s", dir)
		}
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	ipath := module
	if rel != "." {
		ipath = module + "/" + filepath.ToSlash(rel)
	}
	pkg := &pkgInfo{path: ipath, dir: dir, imports: map[string]bool{}}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		pkg.files = append(pkg.files, &parsedFile{path: path, ast: f})
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == module || strings.HasPrefix(p, module+"/") {
				pkg.imports[p] = true
			}
		}
	}
	if len(pkg.files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// simClosure returns every analyzed package reachable from the sim
// roots (roots included, allowlist excluded), mapped to a human-readable
// import chain like "imported via kv3d/internal/experiments".
func (a *analysis) simClosure() map[string]string {
	out := map[string]string{}
	var visit func(path, via string)
	visit = func(path, via string) {
		if a.allow[path] {
			return
		}
		pkg, ok := a.pkgs[path]
		if !ok {
			return
		}
		if _, done := out[path]; done {
			return
		}
		out[path] = via
		for imp := range pkg.imports {
			visit(imp, path)
		}
	}
	for _, r := range a.simRoots {
		visit(r, "")
	}
	return out
}

// calleeFunc resolves the function or method a call invokes, or nil
// when the callee is not a resolved *types.Func (conversions, func
// values, builtins).
func (a *analysis) calleeFunc(call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	var id *ast.Ident
	switch v := fun.(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return nil
	}
	fn, _ := a.info.Uses[id].(*types.Func)
	return fn
}

// namedType unwraps pointers and aliases down to the *types.Named
// behind a type, or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// isSyncMutex reports whether a type is sync.Mutex or sync.RWMutex
// (directly, behind a pointer, or behind an alias).
func isSyncMutex(t types.Type) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// isSyncPool reports whether a type is sync.Pool (directly, behind a
// pointer, or behind an alias).
func isSyncPool(t types.Type) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// funcDecls builds (once, lazily) the module-wide index from resolved
// *types.Func objects to their declarations, covering dependency-only
// packages too: the bufown check resolves //kv3d:aliases contracts on
// callees in other packages, and lifecycle resolves the body a
// `go pkgFn()` statement actually spawns.
func (a *analysis) funcDecls() map[*types.Func]*ast.FuncDecl {
	if a.declOf != nil {
		return a.declOf
	}
	a.declOf = map[*types.Func]*ast.FuncDecl{}
	for _, pkg := range a.pkgs {
		for _, pf := range pkg.files {
			for _, decl := range pf.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := a.info.Defs[fd.Name].(*types.Func); ok {
					a.declOf[fn] = fd
				}
			}
		}
	}
	return a.declOf
}

// isModulePkg reports whether an import path belongs to the module
// under analysis.
func (a *analysis) isModulePkg(path string) bool {
	return path == a.module || strings.HasPrefix(path, a.module+"/")
}
