// Guard on the surface of internal/: every package-level function,
// method, type, constant and variable declared in a non-test file under
// internal/ must be used by some non-test file of the module (bench/,
// cmd/ and examples/ included). A symbol only tests call is code no
// program runs; it gets a caller, a reason in uncalledAllowed, or goes.
package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed exempts symbols ("internal/linalg.Mul",
// "internal/hdfs.FS.KillNode") that stay without a non-test caller,
// each with the reason it is kept. An entry whose symbol is gone, or has
// found a caller, fails the guard too.
var uncalledAllowed = map[string]string{
	// References: the plain implementation a test compares the one
	// programs run against.
	"internal/linalg.Mul":           "serial reference TestMulParallelMatchesSerial checks MulParallel against",
	"internal/bio.KmerCoder.Encode": "from-scratch reference TestEachKmerMatchesEncode checks both of EachKmer's keys against",
	"internal/linalg.FromRows":      "literal-matrix constructor the linalg tests state their expected values with",

	// Fault seams: how tests inject what no program does on purpose.
	"internal/hdfs.FS.KillNode":        "datanode failure, injected by the MapReduce re-execution test",
	"internal/queue.NewFakeClock":      "test clock behind queue.Config.Clock (PR 18: test seam)",
	"internal/queue.FakeClock.Advance": "test clock behind queue.Config.Clock (PR 18: test seam)",

	// Ruled on in PR 18 and kept: surface of the infrastructure tiers
	// that tests drive and ROADMAP items build on.
	"internal/queue.Follower.Err":     "readiness input of ROADMAP's /readyz item; today read by the follower tests",
	"internal/queue.Follower.Service": "standby inspection: how the replication tests compare a follower with its primary",

	// broker.HTTPClient is the Go client of brokerd's HTTP API: each
	// method is the client half of a route brokerd serves, driven by the
	// root integration tests (programs call Submit, Status, Events, Cost
	// and Outputs).
	"internal/broker.HTTPClient.DeadLetters":       "client half of GET /jobs/{id}/deadletters",
	"internal/broker.HTTPClient.FleetSize":         "client half of GET /fleet",
	"internal/broker.HTTPClient.Journal":           "client half of GET /jobs/{id}/journal",
	"internal/broker.HTTPClient.Preempt":           "client half of POST /jobs/{id}/preempt",
	"internal/broker.HTTPClient.Tenants":           "client half of GET /tenants",
	"internal/broker.HTTPClient.WaitForCompletion": "polling helper over Status the HTTP integration tests wait with",
}

// standardMethods are called by the standard library through interfaces
// this guard does not see (fmt.Stringer, error and errors.Is,
// http.Handler, sort and heap, encoding.TextMarshaler, codec's AppendTo).
var standardMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalText": true, "UnmarshalText": true, "AppendTo": true,
}

// moduleLoader type-checks the module's packages from source, non-test
// files only, sharing one object graph so that a use in one package and
// the declaration in another meet at the same types.Object.
type moduleLoader struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*types.Package // by import path
	infos  map[string]*types.Info
	syntax map[string][]*ast.File
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return l.std.Import(path)
	}
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	l.pkgs[path] = nil
	var files []*ast.File
	for _, name := range sourceFiles("." + strings.TrimPrefix(path, "repro")) {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.infos[path], l.syntax[path] = pkg, info, files
	return pkg, nil
}

// sourceFiles lists a directory's non-test Go files.
func sourceFiles(dir string) []string {
	names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	var out []string
	for _, name := range names {
		if !strings.HasSuffix(name, "_test.go") {
			out = append(out, name)
		}
	}
	return out
}

// origin strips a generic instantiation of a function or method back to
// the declared object.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// receiverType names the type (struct or interface) a method is declared
// on, nil for a function.
func receiverType(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

func TestEveryInternalSymbolHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	build.Default.CgoEnabled = false // the source importer then needs no C toolchain
	fset := token.NewFileSet()
	l := &moduleLoader{
		fset: fset, std: importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}, syntax: map[string][]*ast.File{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if len(sourceFiles(path)) == 0 {
			return nil
		}
		_, err = l.Import(filepath.ToSlash(filepath.Join("repro", path)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// used[obj]: some non-test declaration other than obj's own (and, for
	// a type, other than its methods) mentions obj. calledOn collects
	// the interface methods that are mentioned, to credit implementers.
	used := map[types.Object]bool{}
	var calledOn []*types.Func
	for path, files := range l.syntax {
		info := l.infos[path]
		for _, f := range files {
			for _, decl := range f.Decls {
				self := map[types.Object]bool{}
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[d.Name]
					self[obj] = true
					if recv := receiverType(obj); recv != nil {
						self[recv] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							self[info.Defs[s.Name]] = true
						case *ast.ValueSpec:
							for _, name := range s.Names {
								self[info.Defs[name]] = true
							}
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := origin(info.Uses[id])
					if obj == nil || self[obj] {
						return true
					}
					used[obj] = true
					if fn, ok := obj.(*types.Func); ok {
						if sig := fn.Type().(*types.Signature); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
							calledOn = append(calledOn, fn)
						}
					}
					return true
				})
			}
		}
	}
	// viaInterface: a method is called when a mentioned interface method
	// of its name belongs to an interface its receiver satisfies.
	viaInterface := func(m *types.Func, recv *types.TypeName) bool {
		for _, im := range calledOn {
			if im.Name() != m.Name() {
				continue
			}
			iface, ok := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if ok && (types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface)) {
				return true
			}
		}
		return false
	}

	declared := map[string]bool{}
	var uncalled []string
	check := func(name string, obj types.Object) {
		declared[name] = true
		isUsed := used[obj]
		if m, ok := obj.(*types.Func); ok && !isUsed {
			if recv := receiverType(m); recv != nil {
				isUsed = standardMethods[m.Name()] || viaInterface(m, recv)
			} else {
				isUsed = m.Name() == "init"
			}
		}
		reason, allowed := uncalledAllowed[name]
		switch {
		case allowed && isUsed:
			t.Errorf("uncalledAllowed lists %s, which now has a non-test caller: drop the entry", name)
		case allowed && reason == "":
			t.Errorf("uncalledAllowed lists %s without a reason", name)
		case !allowed && !isUsed:
			uncalled = append(uncalled, name)
		}
	}
	for path, pkg := range l.pkgs {
		dir := strings.TrimPrefix(path, "repro/")
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			check(dir+"."+name, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					check(dir+"."+name+"."+named.Method(i).Name(), named.Method(i))
				}
				if iface, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumExplicitMethods(); i++ {
						check(dir+"."+name+"."+iface.ExplicitMethod(i).Name(), iface.ExplicitMethod(i))
					}
				}
			}
		}
	}
	for name := range uncalledAllowed {
		if !declared[name] {
			t.Errorf("uncalledAllowed lists %s, which no longer exists: drop the entry", name)
		}
	}
	sort.Strings(uncalled)
	if len(uncalled) > 0 {
		t.Errorf("%d symbols under internal/ have no non-test caller in the module; give each a caller, a reason in uncalledAllowed, or delete it:\n  %s",
			len(uncalled), strings.Join(uncalled, "\n  "))
	}
}
