package ppa

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportKeeps names the exported declarations that no non-test Go calls
// but that stay on purpose, each with its reason. A key is "dir.Name" for a
// package-level name and "dir.Type.Method" for a method, where the root
// package's dir is "ppa".
var exportKeeps = map[string]string{
	"ppa.ExportTrace":      readmeAPI,
	"ppa.RunInOrder":       readmeAPI,
	"ppa.SeedStudy":        readmeAPI,
	"ppa.VerifyApp":        readmeAPI,
	"ppa.WriteChromeTrace": readmeAPI,

	// Names for the internal types and values that the root package's own
	// signatures carry: a caller outside the module cannot import the
	// internal package that declares them.
	"ppa.HierarchyParams":        "the type of MachineConfig.Hierarchy, which a Customize function sets",
	"ppa.NVMConfig":              "the type of MachineConfig.NVM, which a Customize function sets",
	"ppa.WorkloadProfile":        "the type RunConfig.Profile points to",
	"ppa.OracleReport":           "the type of OracleError.Report, which a lockstep run returns",
	"ppa.OracleDivergence":       "the type of OracleReport.Divergence",
	"ppa.OraclePersistViolation": "the type of OracleReport.PersistViolation",
	"ppa.FaultNone":              faultKind,
	"ppa.FaultTornCheckpoint":    faultKind,
	"ppa.FaultNestedOutage":      faultKind,
	"ppa.FaultBitFlip":           faultKind,
	"ppa.FaultTornWord":          faultKind,
	"ppa.FaultDropTail":          faultKind,

	"internal/checkpoint.Decode":                  "the strict one-image inverse of Image.Encode; the wire-format tests and FuzzCheckpointDecode in package ppa check the format through it",
	"internal/multicore.System.CrashWithOptions":  "the in-place outage CrashCopy must equal; TestCrashCopyMatchesCopyAndCrash and the copy gates in package ppa crash through it, and a method cannot move into another package's test file",
	"internal/nvm.Device.LogObservers":            "TestFailureScheduleResumeKeepsOneOracleLogObserver in package ppa reads it, and a method cannot move into another package's test file",
	"internal/nvm.Device.ReadCheckpoint":          "the checkpoint area as a copy the caller owns; the crash-state pin and the copy gates in package ppa digest the area through it, and a method cannot move into another package's test file",
	"internal/persist.MemDefault":                 "MemoryMode's zero value: config literals select it by leaving the field unset",
	"internal/pipeline.Core.CheckStructural":      "invariant check; wiring it into the lockstep oracle is its own correctness change",
	"internal/pipeline.Core.CheckStoreIntegrity":  "invariant check; wiring it into the lockstep oracle is its own correctness change",
	"internal/pipeline.Core.CheckRenamePartition": "invariant check; wiring it into the lockstep oracle is its own correctness change",
	"internal/workload.GenerateMultiProcess":      "Section 5's multi-process workload; deleting it is a scope decision, not a cleanup",
}

const (
	readmeAPI = "public API that README documents"
	faultKind = "a FaultKind value, which a caller-built TorturePoint's Fault carries"
)

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
// constant declared in non-test Go under internal/ or in the root package
// must be used by some non-test Go file of the repository (cmd/, examples/
// and perfbench included), or be named in exportKeeps. Uses are matched by
// name from the syntax tree: a qualified pkg.Name for another package, a
// bare Name inside the declaring package, and any .Name selector for a
// method. A method's receiver is part of its declaration, so a type that
// only its own methods name is unused.
// internal/fabric is skipped; CI jobs drive it through cmd/ppafabric.
//
// The method match is by name only: any .Name selector counts for every
// method of that name, whatever its receiver. A method that shares its name
// with a called method of another type passes with no caller of its own;
// System.CopyFrom did, while .CopyFrom was called on other types. Resolving
// selectors with go/types would close that gap, but needs the build-tagged
// files, the perfbench module and interface dispatch handled first.
//
// The machine config gets the same treatment field by field: every
// JSON-visible leaf field reachable from multicore.Config must be named by
// a .Field selector in non-test Go. A field that only a composite literal
// sets loads from a -config file and changes nothing.
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
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." {
			dir = "ppa"
		}
		files = append(files, file{dir, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}  // keys as in exportKeeps
	used := map[string]bool{}      // "dir.Name" uses
	selectors := map[string]bool{} // every .Name selector, for methods and fields
	structs := map[string]scope{}  // "dir.Name" -> declared struct type
	for _, f := range files {
		scanned := f.dir == "ppa" || strings.HasPrefix(f.dir, "internal/") && f.dir != "internal/fabric" &&
			!strings.HasPrefix(f.dir, "internal/fabric/")
		imports := map[string]string{} // local name -> repository dir
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if p != "ppa" && !strings.HasPrefix(p, "ppa/internal/") {
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
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							decl[id] = true
						}
						return true
					})
				}
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
						if st, ok := s.Type.(*ast.StructType); ok {
							structs[f.dir+"."+s.Name.Name] = scope{f.dir, imports, st}
						}
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

	root, ok := structs["internal/multicore.Config"]
	if !ok {
		t.Fatal("internal/multicore.Config is not a declared struct type")
	}
	var walk func(path string, s scope)
	walk = func(path string, s scope) {
		for _, fld := range s.st.Fields.List {
			if fld.Tag != nil {
				tag, _ := strconv.Unquote(fld.Tag.Value)
				if name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); name == "-" {
					continue
				}
			}
			for _, n := range fld.Names {
				if !n.IsExported() {
					continue
				}
				if inner, ok := s.structOf(fld.Type, structs); ok {
					walk(path+"."+n.Name, inner)
				} else if !selectors[n.Name] {
					t.Errorf("%s.%s: a machine-config field no non-test Go names with a selector; it configures nothing", path, n.Name)
				}
			}
		}
	}
	walk("multicore.Config", root)
}

// scope is a struct type declaration with what resolves its field types:
// its package directory and its file's imports of internal packages.
type scope struct {
	dir     string
	imports map[string]string
	st      *ast.StructType
}

// structOf resolves a field type written in s's file to a struct type
// declared in the repository.
func (s scope) structOf(e ast.Expr, structs map[string]scope) (scope, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		inner, ok := structs[s.dir+"."+e.Name]
		return inner, ok
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			inner, ok := structs[s.imports[x.Name]+"."+e.Sel.Name]
			return inner, ok
		}
	}
	return scope{}, false
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
