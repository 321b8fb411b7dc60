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
	"strings"
)

// The driver loads packages offline on the toolchain alone:
//
//   - `go list -export -deps -test -json` resolves the patterns, their
//     test variants and their dependency closure, dependencies first, with
//     compiled export data for every package;
//   - every package outside the standard library is parsed and
//     type-checked from source, sharing one FileSet and importer so
//     types.Object identities line up across packages, and the standard
//     library comes from export data;
//   - the analyzers run over each source package in that order, sharing
//     one in-memory fact map per analyzer.
//
// A package with tests is loaded twice, as itself and as the variant its
// in-package tests compile into, plus its external _test package; like
// go vet, the suite therefore sees test files too. Diagnostics are kept
// for the packages the patterns name (not their dependencies), and a
// finding both variants make is reported once.
//
// The standard library is not analyzed, so no fact describes what a
// standard-library function reaches: hotpathcompile names the regexp
// entry points that compile as intrinsics for that reason.

// Diagnostic is one finding of the suite.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

// String renders d the way compilers do: file:line:col: message.
func (d Diagnostic) String() string { return d.Pos.String() + ": " + d.Message }

// Check runs the full suite over the packages matching patterns, resolved
// by the go command in dir, and returns the diagnostics sorted by position.
func Check(dir string, patterns ...string) ([]Diagnostic, error) {
	return Run(dir, Analyzers(), patterns...)
}

// Run is Check with a chosen set of analyzers.
func Run(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	facts := make(map[*Analyzer]map[types.Object]string, len(analyzers))
	for _, a := range analyzers {
		facts[a] = map[types.Object]string{}
	}

	seen := map[Diagnostic]bool{}
	var diags []Diagnostic
	for _, lp := range listed {
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		if strings.HasSuffix(lp.ImportPath, ".test") {
			continue // the generated test main
		}
		imp := importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := lp.ImportMap[path]; ok {
				path = mapped
			}
			if pkg, ok := checked[path]; ok {
				return pkg, nil
			}
			return gc.Import(path)
		})
		files, pkg, info, err := typeCheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = pkg

		report := func(pos token.Pos, msg string) {
			d := Diagnostic{Pos: fset.Position(pos), Message: msg}
			if !lp.DepOnly && !seen[d] {
				seen[d] = true
				diags = append(diags, d)
			}
		}
		allow := newAllowIndex(fset, files)
		for _, a := range analyzers {
			a.run(&pass{analyzer: a, fset: fset, files: files, pkg: pkg, info: info,
				allow: allow, facts: facts[a], report: report})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Offset != b.Pos.Offset {
			return a.Pos.Offset < b.Pos.Offset
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// listedPackage is the part of `go list -json` output the driver reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Export     string
	Standard   bool
	DepOnly    bool
}

// goList resolves patterns, their test variants and their dependency
// closure, dependencies first.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,GoFiles,ImportMap,Export,Standard,DepOnly", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, lp)
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// typeCheck parses and type-checks one package from source. A test
// variant is listed as "p [p.test]" but, as in the compiler, its package
// path is p's.
func typeCheck(fset *token.FileSet, imp types.Importer, lp *listedPackage) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	path, _, _ := strings.Cut(lp.ImportPath, " ")
	pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("lint: type-checking %s: %w", lp.ImportPath, err)
	}
	return files, pkg, info, nil
}
