package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"github.com/repro/snntest/internal/pool"
)

// Package is one package of the module. ScanModule populates the cheap
// metadata (directory, file bytes, import graph, content hash); the full
// ASTs and type information are filled in lazily by EnsureChecked, so a
// cache-hit run never pays for parsing bodies or type-checking.
type Package struct {
	Path  string // import path
	Dir   string
	Files []*ast.File // non-test files; nil until parsed by EnsureChecked
	Types *types.Package
	Info  *types.Info

	fileNames []string          // sorted absolute paths of the non-test .go files
	srcs      map[string][]byte // file path → raw bytes (from the scan)
	deps      []string          // module-internal imports
	hash      string            // content hash over fileNames+srcs
	parsed    bool
	checked   bool
}

// Hash returns the hex content hash of the package's non-test sources.
func (p *Package) Hash() string { return p.hash }

// Module is the scanned Go module under analysis.
type Module struct {
	Path  string // module path from go.mod
	Dir   string // directory containing go.mod
	GoMod string // raw go.mod contents
	Fset  *token.FileSet
	Pkgs  []*Package // topologically sorted, dependencies first

	byPath   map[string]*Package
	importer types.Importer
	impMu    sync.Mutex // serializes the shared (GOROOT source) importer
}

// LoadModule scans the module and parses + type-checks every package —
// the full, non-incremental load used by the golden-fixture tests and by
// callers that need every package's type information up front.
func LoadModule(dir string) (*Module, error) {
	mod, err := ScanModule(dir)
	if err != nil {
		return nil, err
	}
	if err := mod.EnsureChecked(mod.Pkgs, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	return mod, nil
}

// ScanModule locates the go.mod at or above dir and performs the cheap
// discovery pass: it reads every non-test .go file of the module, parses
// import clauses only, builds the dependency graph in topological order
// and computes per-package content hashes. No function bodies are parsed
// and nothing is type-checked.
func ScanModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, goMod, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	mod := &Module{
		Path:   modPath,
		Dir:    root,
		GoMod:  goMod,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
	}
	mod.importer = &moduleImporter{
		mod: mod,
		std: importer.ForCompiler(mod.Fset, "source", nil),
	}

	if err := mod.scanAll(); err != nil {
		return nil, err
	}
	ordered, err := mod.topoSort()
	if err != nil {
		return nil, err
	}
	mod.Pkgs = ordered
	for _, pkg := range ordered {
		pkg.hash = contentHash(pkg)
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

// scanAll discovers every package directory (skipping testdata, hidden
// and underscore-prefixed directories), reads its non-test files and
// parses their import clauses.
func (m *Module) scanAll() error {
	return filepath.WalkDir(m.Dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.Dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		pkg := &Package{Dir: path, srcs: make(map[string][]byte)}
		depSet := make(map[string]bool)
		for _, e := range entries {
			fn := e.Name()
			if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
				continue
			}
			full := filepath.Join(path, fn)
			src, rerr := os.ReadFile(full)
			if rerr != nil {
				return rerr
			}
			// Imports-only parse: enough for the dependency graph; full
			// ASTs are built lazily for the packages that need analysis.
			f, perr := parser.ParseFile(token.NewFileSet(), full, src, parser.ImportsOnly)
			if perr != nil {
				return fmt.Errorf("lint: %w", perr)
			}
			pkg.fileNames = append(pkg.fileNames, full)
			pkg.srcs[full] = src
			for _, spec := range f.Imports {
				ip := strings.Trim(spec.Path.Value, `"`)
				if ip == m.Path || strings.HasPrefix(ip, m.Path+"/") {
					depSet[ip] = true
				}
			}
		}
		if len(pkg.fileNames) == 0 {
			return nil
		}
		sort.Strings(pkg.fileNames)
		rel, err := filepath.Rel(m.Dir, path)
		if err != nil {
			return err
		}
		pkg.Path = m.Path
		if rel != "." {
			pkg.Path = m.Path + "/" + filepath.ToSlash(rel)
		}
		for dep := range depSet {
			pkg.deps = append(pkg.deps, dep)
		}
		sort.Strings(pkg.deps)
		m.byPath[pkg.Path] = pkg
		return nil
	})
}

// contentHash digests the package's file names and bytes.
func contentHash(pkg *Package) string {
	h := sha256.New()
	for _, fn := range pkg.fileNames {
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.Base(fn), len(pkg.srcs[fn]))
		h.Write(pkg.srcs[fn])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// topoSort orders packages dependencies-first so type-checking can
// resolve module-internal imports from already-checked packages.
func (m *Module) topoSort() ([]*Package, error) {
	paths := make([]string, 0, len(m.byPath))
	for p := range m.byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(paths))
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
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}

// closure returns targets plus all their transitive module-internal
// dependencies, in the module's topological order.
func (m *Module) closure(targets []*Package) []*Package {
	need := make(map[*Package]bool)
	var add func(p *Package)
	add = func(p *Package) {
		if need[p] {
			return
		}
		need[p] = true
		for _, dep := range p.deps {
			add(m.byPath[dep])
		}
	}
	for _, p := range targets {
		add(p)
	}
	out := make([]*Package, 0, len(need))
	for _, p := range m.Pkgs {
		if need[p] {
			out = append(out, p)
		}
	}
	return out
}

// parse builds the package's full ASTs (with comments) from the bytes
// captured at scan time.
func (m *Module) parse(pkg *Package) error {
	if pkg.parsed {
		return nil
	}
	for _, fn := range pkg.fileNames {
		f, err := parser.ParseFile(m.Fset, fn, pkg.srcs[fn], parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.parsed = true
	return nil
}

// EnsureChecked parses and type-checks the given packages plus their
// transitive module-internal dependencies, running up to workers
// type-checks concurrently. Packages are scheduled dependencies-first:
// a package starts checking only after every dependency has finished,
// so the shared module importer always resolves internal imports from
// completed packages. Already-checked packages are skipped, making the
// call idempotent and incremental.
func (m *Module) EnsureChecked(targets []*Package, workers int) error {
	if workers < 1 {
		workers = 1
	}
	need := m.closure(targets)
	var todo []*Package
	for _, pkg := range need {
		if !pkg.checked {
			todo = append(todo, pkg)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	// token.FileSet is internally synchronized, so the full parses can
	// proceed concurrently before any type-checking starts.
	if err := runLimited(todo, workers, m.parse); err != nil {
		return err
	}

	done := make(map[*Package]chan struct{}, len(todo))
	for _, pkg := range todo {
		done[pkg] = make(chan struct{})
	}
	errs := make([]error, len(todo))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, pkg := range todo {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			defer close(done[pkg])
			// Wait for module-internal dependencies being checked in
			// this round; dependencies outside todo are already checked.
			for _, dep := range pkg.deps {
				if ch, ok := done[m.byPath[dep]]; ok {
					<-ch
				}
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = m.check(pkg)
		}(i, pkg)
	}
	wg.Wait()
	// Report the first error in topological order so the message is
	// deterministic and names the root cause, not a dependent's
	// importer failure.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runLimited applies fn to every package with at most workers running
// concurrently, returning the first error in slice order.
func runLimited(pkgs []*Package, workers int, fn func(*Package) error) error {
	errs := make([]error, len(pkgs))
	pool.Run(workers, len(pkgs), func(i int) { errs[i] = fn(pkgs[i]) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// check type-checks pkg with full info recording. Dependencies must be
// checked already (EnsureChecked's scheduler guarantees it).
func (m *Module) check(pkg *Package) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: m.importer}
	tpkg, err := conf.Check(pkg.Path, m.Fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	pkg.checked = true
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
	for _, fn := range filenames {
		src, err := os.ReadFile(fn)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		f, perr := parser.ParseFile(m.Fset, fn, src, parser.ParseComments)
		if perr != nil {
			return nil, fmt.Errorf("lint: %w", perr)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.fileNames = append(pkg.fileNames, fn)
		pkg.srcs[fn] = src
	}
	pkg.parsed = true
	if !typecheck {
		pkg.Info = &types.Info{}
		return pkg, nil
	}
	if err := m.check(pkg); err != nil {
		return nil, err
	}
	return pkg, nil
}

// moduleImporter resolves module-internal imports from the already
// type-checked packages and everything else from GOROOT source. The
// GOROOT source importer is not safe for concurrent use, so ImportFrom
// serializes on the module's importer lock; its internal package cache
// keeps repeat imports cheap.
type moduleImporter struct {
	mod *Module
	std types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	return mi.ImportFrom(path, "", 0)
}

func (mi *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := mi.mod.byPath[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: %s imported before it was checked (cycle?)", path)
		}
		return pkg.Types, nil
	}
	if path == mi.mod.Path || strings.HasPrefix(path, mi.mod.Path+"/") {
		return nil, fmt.Errorf("lint: module package %s not found", path)
	}
	mi.mod.impMu.Lock()
	defer mi.mod.impMu.Unlock()
	if from, ok := mi.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return mi.std.Import(path)
}
