// Package deadcode holds the module's dead-code check: a test that
// fails when an exported function or method under internal/ is used by
// no non-test file and is not on the allowlist below.
package deadcode

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const modulePath = "privid"

// allowed lists the exported functions and methods under internal/
// that no non-test file calls but that stay, keyed by
// types.Func.FullName, each with the reason it stays.
var allowed = map[string]string{
	"(*privid/internal/cache.Flight).InFlight": "call-leak probe of singleflight_test.go",

	// internal/harness is the end-to-end test stack; these are the calls
	// its tests make on it.
	"(*privid/internal/harness.H).Audit":      "end-to-end tests read the audit log over HTTP",
	"(*privid/internal/harness.H).Budget":     "end-to-end tests read a camera's budget over HTTP",
	"(*privid/internal/harness.H).Metrics":    "end-to-end tests scrape /v1/metrics",
	"(*privid/internal/harness.H).Registry":   "end-to-end tests read the stack's own metrics registry",
	"(*privid/internal/harness.H).State":      "end-to-end tests read the durable-store status over HTTP",
	"(*privid/internal/harness.H).Stats":      "end-to-end tests read /v1/stats",
	"(*privid/internal/harness.H).SubmitWait": "the submit-then-poll call of every end-to-end test",
	"(*privid/internal/harness.H).Trace":      "end-to-end tests read a job's persisted trace",
	"privid/internal/harness.CountQuery":      "the query text end-to-end tests submit",

	"privid/internal/obs.CheckExposition":   "validator the obs, core and harness tests run over /v1/metrics output",
	"privid/internal/table.MustSchema":      "schema constructor for test fixtures",
	"(*privid/internal/table.Table).Append": "row-wise fixture builder of the table, rel and cache tests",
	"(*privid/internal/table.Table).Rows":   "row-wise reader the table, rel and core tests compare with",
	"(*privid/internal/table.Table).Frozen": "cache tests assert that cached tables are frozen",

	// Pinned only by their own unit tests (TestTableColAndSort,
	// TestTableClone, TestClone, the intervalmap Min assertions,
	// TestDurationSeconds); ROADMAP item 2 lists them for deletion
	// together with those tests.
	"(*privid/internal/table.Table).Clone":                "pinned by TestTableClone",
	"(*privid/internal/table.Table).Col":                  "pinned by TestTableColAndSort",
	"(*privid/internal/table.Table).SortBy":               "pinned by TestTableColAndSort and TestTableClone",
	"(*privid/internal/intervalmap.Map).Clone":            "pinned by TestClone",
	"(*privid/internal/intervalmap.Map).Min":              "pinned by the intervalmap tests and BenchmarkMinQuery",
	"(privid/internal/cv.DurationReport).DurationSeconds": "pinned by TestDurationSeconds",
}

// TestNoDeadExports type-checks every package of the module (and of
// the perfbench module, which imports internal packages) from source,
// marks every function and method a non-test file refers to, and
// reports the exported functions and methods under internal/ left
// unmarked. A method that satisfies an interface counts as used: it
// can be called through the interface without being named. So does a
// method of a type the library's public API exposes — a type the root
// package re-exports as an alias, or one reachable from such a type's
// exported fields and method signatures.
func TestNoDeadExports(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	l := &loader{
		root: root,
		fset: token.NewFileSet(),
		pkgs: map[string]*checked{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	paths, err := l.packagePaths()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}

	used := map[*types.Func]bool{}
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var addIfaces func(pkg *types.Package)
	addIfaces = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			addIfaces(imp)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, path := range paths {
		c := l.pkgs[path]
		addIfaces(c.pkg)
		for _, obj := range c.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, tv := range c.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}

	public := map[*types.Named]bool{}
	rootScope := l.pkgs[modulePath].pkg.Scope()
	for _, name := range rootScope.Names() {
		if tn, ok := rootScope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			addPublic(public, tn.Type())
		}
	}

	var dead []string
	deadPos := map[string]token.Pos{}
	report := func(fn *types.Func) {
		if fn.Exported() && !used[fn] {
			dead = append(dead, fn.FullName())
			deadPos[fn.FullName()] = fn.Pos()
		}
	}
	for _, path := range paths {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		scope := l.pkgs[path].pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				report(obj)
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() || public[named] {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); !satisfiesInterface(named, m, ifaces) {
						report(m)
					}
				}
			}
		}
	}
	sort.Strings(dead)
	isDead := map[string]bool{}
	for _, name := range dead {
		isDead[name] = true
		if _, ok := allowed[name]; !ok {
			t.Errorf("%s: %s is used by no non-test file: delete it, or allowlist it with the reason it stays",
				l.fset.Position(deadPos[name]), name)
		}
	}
	for name := range allowed {
		if !isDead[name] {
			t.Errorf("allowlist entry %s is used or gone: delete the entry", name)
		}
	}
}

// addPublic marks the module's named types that t exposes to library
// users: t itself, and through the exported fields and methods of
// every type it marks, the types those carry.
func addPublic(public map[*types.Named]bool, t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if pkg := t.Obj().Pkg(); pkg == nil || !strings.HasPrefix(pkg.Path(), modulePath+"/") || public[t] {
			return
		}
		public[t] = true
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Exported() {
					addPublic(public, st.Field(i).Type())
				}
			}
		}
		for i := 0; i < t.NumMethods(); i++ {
			if m := t.Method(i); m.Exported() {
				addPublic(public, m.Type())
			}
		}
	case *types.Pointer:
		addPublic(public, t.Elem())
	case *types.Slice:
		addPublic(public, t.Elem())
	case *types.Array:
		addPublic(public, t.Elem())
	case *types.Map:
		addPublic(public, t.Key())
		addPublic(public, t.Elem())
	case *types.Chan:
		addPublic(public, t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				addPublic(public, tup.At(i).Type())
			}
		}
	}
}

// satisfiesInterface reports whether m, a method of named, is one of
// the methods by which named or *named implements some interface.
func satisfiesInterface(named *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != m.Name() {
				continue
			}
			if types.Implements(named, it) || types.Implements(ptr, it) {
				return true
			}
			break
		}
	}
	return false
}

// moduleRoot walks up from the working directory to the go.mod of the
// privid module.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}

// loader type-checks the module's packages from their non-test files,
// importing module packages through itself (so objects are shared
// across packages) and everything else through the source importer.
type loader struct {
	root string
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*checked
}

type checked struct {
	pkg  *types.Package
	info *types.Info
}

// packagePaths lists the import path of every directory under the
// module root holding non-test Go files.
func (l *loader) packagePaths() ([]string, error) {
	seen := map[string]bool{}
	var paths []string
	err := filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(l.root, filepath.Dir(path))
		if err != nil {
			return err
		}
		p := modulePath
		if rel != "." {
			p += "/" + filepath.ToSlash(rel)
		}
		seen[p] = true
		return nil
	})
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths, err
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return l.std.ImportFrom(path, dir, mode)
	}
	c, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return c.pkg, nil
}

// load parses and type-checks one module package's non-test files
// that match the build context, once.
func (l *loader) load(path string) (*checked, error) {
	if c, ok := l.pkgs[path]; ok {
		return c, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, modulePath)))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	c := &checked{pkg: pkg, info: info}
	l.pkgs[path] = c
	return c, nil
}
