package ppa

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportKeeps names the exported internal declarations that no non-test
// Go calls but that stay on purpose, each with its reason. A key is
// "dir.Name" for a package-level name and "dir.Type.Method" for a method.
var exportKeeps = map[string]string{
	"internal/checkpoint.Decode":                  "the strict one-image inverse of Image.Encode; the wire-format tests and FuzzCheckpointDecode in package ppa check the format through it",
	"internal/nvm.Device.LogObservers":            "TestFailureScheduleResumeKeepsOneOracleLogObserver in package ppa reads it, and a method cannot move into another package's test file",
	"internal/persist.MemDefault":                 "MemoryMode's zero value: config literals select it by leaving the field unset",
	"internal/pipeline.Core.CheckStructural":      "invariant check; wiring it into the lockstep oracle is its own correctness change",
	"internal/pipeline.Core.CheckStoreIntegrity":  "invariant check; wiring it into the lockstep oracle is its own correctness change",
	"internal/pipeline.Core.CheckRenamePartition": "invariant check; wiring it into the lockstep oracle is its own correctness change",
	"internal/litmus/px86.Model.Member":           "axiomatic model query; whether the litmus harness should call it is still open",
	"internal/litmus/px86.Model.FinalMember":      "axiomatic model query; whether the litmus harness should call it is still open",
	"internal/workload.GenerateMultiProcess":      "Section 5's multi-process workload; deleting it is a scope decision, not a cleanup",
}

// implicitMethods are satisfied implicitly by the standard library
// (fmt, errors, sort, encoding/json, io), which calls them without a
// selector in this repository.
var implicitMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Write": true, "Read": true, "Close": true, "ServeHTTP": true,
}

// TestInternalExportsHaveCallers keeps "code nothing calls gets deleted"
// from regrowing: every exported function, method, type, variable and
// constant declared in non-test Go under internal/ must be used by some
// non-test Go file of the repository (perfbench included), or be named in
// exportKeeps. Uses are matched by name from the syntax tree: a qualified
// pkg.Name for another package, a bare Name inside the declaring package,
// and any .Name selector for a method. internal/fabric is skipped; CI
// jobs drive it through cmd/ppafabric.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		dir string // slash path relative to the repository root
		ast *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}  // keys as in exportKeeps
	used := map[string]bool{}      // "dir.Name" uses
	selectors := map[string]bool{} // every .Name selector, for methods
	for _, f := range files {
		scanned := strings.HasPrefix(f.dir, "internal/") && f.dir != "internal/fabric" &&
			!strings.HasPrefix(f.dir, "internal/fabric/")
		imports := map[string]string{} // local name -> repository dir
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(p, "ppa/internal/") {
				continue
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(p, "ppa/")
		}
		decl := map[*ast.Ident]bool{}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decl[d.Name] = true
				if !scanned || !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					declared[f.dir+"."+d.Name.Name] = true
				} else if recv := recvName(d.Recv.List[0].Type); ast.IsExported(recv) && !implicitMethods[d.Name.Name] {
					declared[f.dir+"."+recv+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, n := range names {
						decl[n] = true
						if scanned && n.IsExported() {
							declared[f.dir+"."+n.Name] = true
						}
					}
				}
			}
		}
		sel := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel[n.Sel] = true
				selectors[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						used[dir+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !decl[n] && !sel[n] {
					used[f.dir+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var unused []string
	for key := range declared {
		parts := strings.Split(key, ".")
		if len(parts) == 3 {
			if selectors[parts[2]] {
				continue
			}
		} else if used[key] {
			continue
		}
		unused = append(unused, key)
	}
	sort.Strings(unused)
	for _, key := range unused {
		if _, ok := exportKeeps[key]; !ok {
			t.Errorf("%s: exported, but no non-test Go uses it; delete it or move it into a _test.go file", key)
		}
	}
	for key := range exportKeeps {
		if !slices.Contains(unused, key) {
			t.Errorf("exportKeeps names %s, which is no longer declared or now has a non-test caller", key)
		}
	}
}

// recvName returns the type name of a method receiver (T, *T, T[P]).
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
