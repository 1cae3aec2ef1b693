package analysis

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
	"slices"
	"sort"
	"strconv"
	"strings"
)

// LoadedPackage is one parsed and type-checked package.
type LoadedPackage struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// Loader parses and type-checks packages using only the standard library:
// package metadata comes from `go list -json`, and dependencies are read
// from the compiler's export data, which `go list -export` builds (or finds
// in the build cache) and names, through the go/importer "gc" importer
// (which caches each dependency across packages).
type Loader struct {
	fset    *token.FileSet
	imp     types.Importer
	exports map[string]string // import path → export data file
}

// NewLoader creates a loader with a shared file set and dependency cache.
func NewLoader() *Loader {
	l := &Loader{fset: token.NewFileSet(), exports: map[string]string{}}
	l.imp = importer.ForCompiler(l.fset, "gc", l.lookup)
	return l
}

// lookup opens the export data go list named for path.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	file := l.exports[path]
	if file == "" {
		return nil, fmt.Errorf("analysis: no export data for %q", path)
	}
	return os.Open(file)
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Export     string
	DepOnly    bool
}

// list runs `go list -deps -export` on patterns in dir, records every
// listed package's export data, and returns the packages.
func (l *Loader) list(dir string, patterns ...string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=Dir,ImportPath,GoFiles,Export,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %v", err)
		}
		l.exports[lp.ImportPath] = lp.Export
		pkgs = append(pkgs, lp)
	}
}

// LoadModule lists the packages matching patterns (e.g. "./...") relative to
// dir and loads each one. Test files are excluded, matching the invariant
// scope: tests may use wall clocks and discard errors freely.
func (l *Loader) LoadModule(dir string, patterns ...string) ([]*LoadedPackage, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := l.list(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var pkgs []*LoadedPackage
	for _, lp := range listed {
		if lp.DepOnly || len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		loaded, err := l.load(lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, loaded)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// LoadDir loads the single package in dir under the given import path. Used
// by tests to load fixture packages from testdata (which go list ignores).
func (l *Loader) LoadDir(dir, importPath string) (*LoadedPackage, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []string
	for _, m := range matches {
		if strings.HasSuffix(m, "_test.go") {
			continue
		}
		files = append(files, m)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	sort.Strings(files)
	return l.load(importPath, dir, files)
}

// listImports makes sure every package files import has its export data
// listed, asking go list (from dir) once for whichever are missing.
func (l *Loader) listImports(dir string, files []*ast.File) error {
	var missing []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return fmt.Errorf("analysis: import %s: %v", spec.Path.Value, err)
			}
			if _, ok := l.exports[path]; !ok && path != "unsafe" && !slices.Contains(missing, path) {
				missing = append(missing, path)
			}
		}
	}
	if len(missing) == 0 {
		return nil
	}
	_, err := l.list(dir, missing...)
	return err
}

func (l *Loader) load(importPath, dir string, filenames []string) (*LoadedPackage, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	if err := l.listImports(dir, files); err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l.imp}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %v", importPath, err)
	}
	return &LoadedPackage{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
	}, nil
}
