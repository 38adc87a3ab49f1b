package lint

import (
	"bytes"
	"encoding/json"
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
	"strconv"
	"strings"

	"github.com/repro/snntest/internal/pool"
)

// Package is one package of the module with its parsed non-test files
// and their type information.
type Package struct {
	Path  string // import path
	Dir   string
	Files []*ast.File // non-test files, sorted by name
	Types *types.Package
	Info  *types.Info

	srcs map[string][]byte // file path → raw bytes
	deps []string          // module-internal imports
}

// Module is the loaded Go module under analysis.
type Module struct {
	Path  string // module path from go.mod
	Dir   string // directory containing go.mod
	GoMod string // raw go.mod contents
	Fset  *token.FileSet
	Pkgs  []*Package // topologically sorted, dependencies first

	byPath  map[string]*Package
	exports map[string]string // non-module import path → gc export data file
	gc      types.Importer    // reads m.exports; not safe for concurrent use
}

// LoadModule loads the module at or above dir: every non-test package
// parsed and type-checked.
func LoadModule(dir string) (*Module, error) {
	return loadModule(dir, 0)
}

// loadModule locates the go.mod at or above dir, parses every non-test
// file of the module on up to workers goroutines (<= 0 means
// GOMAXPROCS), and type-checks the packages from source,
// dependencies first, on the one shared FileSet. Imports from outside
// the module (the standard library) are read from the gc export data
// that one `go list -export` run reports, so nothing outside the module
// is type-checked from source.
func loadModule(dir string, workers int) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, goMod, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	mod := &Module{
		Path:    modPath,
		Dir:     root,
		GoMod:   goMod,
		Fset:    token.NewFileSet(),
		byPath:  make(map[string]*Package),
		exports: make(map[string]string),
	}
	mod.gc = importer.ForCompiler(mod.Fset, "gc", mod.openExport)

	external, err := mod.parseAll(workers)
	if err != nil {
		return nil, err
	}
	if mod.Pkgs, err = mod.topoSort(); err != nil {
		return nil, err
	}
	if err := mod.listExports(external); err != nil {
		return nil, err
	}
	for _, pkg := range mod.Pkgs {
		if err := mod.check(pkg); err != nil {
			return nil, err
		}
	}
	return mod, nil
}

// findModule walks upward from dir to the nearest go.mod.
func findModule(dir string) (root, modPath, goMod string, err error) {
	for d := dir; ; {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			mp := parseModulePath(string(data))
			if mp == "" {
				return "", "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
			}
			return d, mp, string(data), nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", "", fmt.Errorf("lint: no go.mod found at or above %s", dir)
		}
		d = parent
	}
}

func parseModulePath(goMod string) string {
	for _, line := range strings.Split(goMod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// inModule reports whether path names a package of this module.
func (m *Module) inModule(path string) bool {
	return path == m.Path || strings.HasPrefix(path, m.Path+"/")
}

// parseAll discovers every package directory (skipping testdata, hidden
// and underscore-prefixed directories), parses its non-test files on the
// worker pool and records each package's module-internal imports. It
// returns the sorted import paths from outside the module.
func (m *Module) parseAll(workers int) ([]string, error) {
	type fileRef struct {
		pkg  *Package
		path string
	}
	var refs []fileRef // package by package, files in name order
	err := filepath.WalkDir(m.Dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != m.Dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(m.Dir, path)
		if err != nil {
			return err
		}
		pkg := &Package{Path: m.Path, Dir: path, srcs: make(map[string][]byte)}
		if rel != "." {
			pkg.Path = m.Path + "/" + filepath.ToSlash(rel)
		}
		n := len(refs)
		for _, e := range entries {
			fn := e.Name()
			if !e.IsDir() && strings.HasSuffix(fn, ".go") && !strings.HasSuffix(fn, "_test.go") {
				refs = append(refs, fileRef{pkg, filepath.Join(path, fn)})
			}
		}
		if len(refs) > n {
			m.byPath[pkg.Path] = pkg
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// token.FileSet is safe for concurrent use, so every file of the
	// module parses in parallel.
	files := make([]*ast.File, len(refs))
	srcs := make([][]byte, len(refs))
	errs := make([]error, len(refs))
	pool.Run(workers, len(refs), func(i int) {
		srcs[i], files[i], errs[i] = m.parseFile(refs[i].path)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	for i, r := range refs {
		r.pkg.Files = append(r.pkg.Files, files[i])
		r.pkg.srcs[r.path] = srcs[i]
	}
	external := make(map[string]bool)
	for _, pkg := range m.byPath {
		deps := make(map[string]bool)
		for _, f := range pkg.Files {
			for _, ip := range importPaths(f) {
				if m.inModule(ip) {
					deps[ip] = true
				} else {
					external[ip] = true
				}
			}
		}
		pkg.deps = sortedKeys(deps)
	}
	return sortedKeys(external), nil
}

// parseFile reads and fully parses one file into the module's FileSet.
func (m *Module) parseFile(path string) ([]byte, *ast.File, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: %w", err)
	}
	f, err := parser.ParseFile(m.Fset, path, src, parser.ParseComments)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: %w", err)
	}
	return src, f, nil
}

// importPaths returns the unquoted import paths of f.
func importPaths(f *ast.File) []string {
	paths := make([]string, 0, len(f.Imports))
	for _, spec := range f.Imports {
		if ip, err := strconv.Unquote(spec.Path.Value); err == nil {
			paths = append(paths, ip)
		}
	}
	return paths
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// topoSort orders packages dependencies-first so type-checking can
// resolve module-internal imports from already-checked packages.
func (m *Module) topoSort() ([]*Package, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(m.byPath))
	var ordered []*Package
	var visit func(path string) error
	visit = func(path string) error {
		pkg, ok := m.byPath[path]
		if !ok {
			return fmt.Errorf("lint: import %q not found in module", path)
		}
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %q", path)
		}
		state[path] = visiting
		for _, dep := range pkg.deps {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = done
		ordered = append(ordered, pkg)
		return nil
	}
	paths := make([]string, 0, len(m.byPath))
	for p := range m.byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}

// listExports asks the go command, in one run, for the gc export data
// of the given import paths and their dependencies (building any that
// are missing from the build cache) and records where each file is.
// Paths already recorded are not listed again; packages the go command
// cannot resolve are left out, so importing them fails type-checking.
func (m *Module) listExports(paths []string) error {
	var missing []string
	for _, p := range paths {
		if _, ok := m.exports[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Export"}, missing...)...)
	cmd.Dir = m.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("lint: go list -export: %w\n%s", err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("lint: go list -export output: %w", err)
		}
		if p.Export != "" {
			m.exports[p.ImportPath] = p.Export
		}
	}
}

// openExport is the gc importer's lookup: the export data file of an
// import path from outside the module.
func (m *Module) openExport(path string) (io.ReadCloser, error) {
	file, ok := m.exports[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(file)
}

// Import resolves module-internal imports from the already type-checked
// packages and everything else from export data.
func (m *Module) Import(path string) (*types.Package, error) {
	if pkg, ok := m.byPath[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: %s imported before it was checked (cycle?)", path)
		}
		return pkg.Types, nil
	}
	if m.inModule(path) {
		return nil, fmt.Errorf("lint: module package %s not found", path)
	}
	return m.gc.Import(path)
}

// check type-checks pkg with full info recording. Its module-internal
// dependencies must be checked already.
func (m *Module) check(pkg *Package) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: m}
	tpkg, err := conf.Check(pkg.Path, m.Fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// CheckPackage parses and type-checks the given source files as a
// standalone package with the given import path, resolving imports
// against this module. Golden-fixture tests use it to lint testdata
// files that the module walk deliberately skips. With typecheck false
// the files are only parsed (for fixtures that import unresolvable
// paths on purpose); analyzers run on such a package must not consult
// type info.
func (m *Module) CheckPackage(path string, filenames []string, typecheck bool) (*Package, error) {
	pkg := &Package{Path: path, srcs: make(map[string][]byte)}
	var external []string
	for _, fn := range filenames {
		src, f, err := m.parseFile(fn)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		pkg.srcs[fn] = src
		for _, ip := range importPaths(f) {
			if !m.inModule(ip) {
				external = append(external, ip)
			}
		}
	}
	if !typecheck {
		pkg.Info = &types.Info{}
		return pkg, nil
	}
	if err := m.listExports(external); err != nil {
		return nil, err
	}
	if err := m.check(pkg); err != nil {
		return nil, err
	}
	return pkg, nil
}
