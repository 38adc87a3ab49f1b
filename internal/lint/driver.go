package lint

import (
	"sort"
	"time"

	"github.com/repro/snntest/internal/pool"
)

// Options configures an AnalyzeModule run.
type Options struct {
	// Workers bounds the parsing and analysis concurrency; <= 0 means
	// GOMAXPROCS. Results are identical for every value.
	Workers int
}

// Stats summarizes one driver run.
type Stats struct {
	// Packages is the number of packages in the module.
	Packages int
	// Suppressed counts findings dropped by //lint:ignore directives.
	Suppressed int
	// Wall is the end-to-end driver time, load to sorted output.
	Wall time.Duration
}

// Result is a driver run's sorted diagnostics plus its statistics.
type Result struct {
	Diagnostics []Diagnostic
	Stats       Stats
}

// AnalyzeModule loads the module rooted at (or above) dir, runs the
// analyzers over every package concurrently, applies //lint:ignore
// suppressions, and returns globally sorted diagnostics. The output is
// bit-identical for any worker count.
func AnalyzeModule(dir string, analyzers []*Analyzer, opts Options) (*Result, error) {
	start := time.Now()
	mod, err := loadModule(dir, opts.Workers)
	if err != nil {
		return nil, err
	}
	diags, suppressed := analyze(mod, analyzers, opts.Workers)
	return &Result{
		Diagnostics: diags,
		Stats:       Stats{Packages: len(mod.Pkgs), Suppressed: suppressed, Wall: time.Since(start)},
	}, nil
}

// analyze runs the analyzers over every package of a loaded module on
// up to workers goroutines, plus the module-level go.mod dependency
// check, and returns the surviving diagnostics sorted with the number
// suppressed.
func analyze(mod *Module, analyzers []*Analyzer, workers int) (diags []Diagnostic, suppressed int) {
	perPkg := make([][]Diagnostic, len(mod.Pkgs))
	perSup := make([]int, len(mod.Pkgs))
	pool.Run(workers, len(mod.Pkgs), func(i int) {
		pkg := mod.Pkgs[i]
		perPkg[i], perSup[i] = applySuppressions(mod, pkg, analyzePackage(mod, pkg, analyzers))
	})
	for i := range perPkg {
		diags = append(diags, perPkg[i]...)
		suppressed += perSup[i]
	}
	for _, a := range analyzers {
		if a == StdlibOnly {
			diags = append(diags, goModDiagnostics(mod)...)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diagLess(diags[i], diags[j]) })
	return diags, suppressed
}

// analyzePackage runs every analyzer over one type-checked package and
// returns the raw (pre-suppression) diagnostics.
func analyzePackage(mod *Module, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{
			Fset:     mod.Fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Module:   mod,
			analyzer: a,
			diags:    &diags,
		})
	}
	return diags
}
