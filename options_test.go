// Guard on the option space of the infrastructure tiers and of the
// contrast tier (core's runners, MapReduce): every exported field of the
// config types below must be set by at least one non-test file in the
// repository — a daemon, a benchmark, an example, or a package that
// configures another. A field only tests set is a branch no program
// runs; it becomes a constant, goes with its branch, or is a named test
// seam in unsetAllowed.
package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// configTypes lists the guarded types by package directory.
var configTypes = map[string][]string{
	"internal/queue":        {"Config", "Durability"},
	"internal/queue/wire":   {"Options", "Server"},
	"internal/queue/shard":  {"Config", "AutoscalePolicy"},
	"internal/broker":       {"Config", "AutoscalePolicy", "ReplanPolicy"},
	"internal/classiccloud": {"Config"},
	"internal/blob":         {"Config"},
	"internal/catalog":      {"Config"},
	"internal/core":         {"ClassicCloudRunner", "MapReduceRunner", "DryadRunner"},
	"internal/mapreduce":    {"JobConfig"},
}

// unsetAllowed names the test seams: fields no program sets, kept
// exported because tests reach a path through them that no constant
// could, each with its reason. An entry whose field is gone, or has
// found a setter outside the tests, fails the guard too.
var unsetAllowed = map[string]string{
	"internal/queue.Config.Clock":                 "the fake clock: visibility timeouts and lease lapses without sleeping",
	"internal/blob.Config.Clock":                  "the fake clock behind the consistency window",
	"internal/queue.Config.DuplicateProb":         "the at-least-once fault (duplicate delivery) the Classic Cloud model must survive",
	"internal/blob.Config.ConsistencyWindow":      "the eventual-consistency fault (stale or missing reads) the Classic Cloud model must survive",
	"internal/queue/shard.Config.ForwardInterval": "set to an hour by the router scripts, so no wall-clock forwarder breaks a seeded script",
	"internal/blob.Config.RequestLatency":         "storage round-trip model ROADMAP item 1(c)'s benchmark twin is specified to set",
	"internal/blob.Config.BandwidthBytesPerSec":   "storage round-trip model ROADMAP item 1(c)'s benchmark twin is specified to set",
}

// optionFields is the size of the guarded option space. It moves only
// in a change that means to move it.
const optionFields = 75

func TestEveryConfigFieldHasASetter(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{} // non-test files, by slash path relative to the repo root
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil // tests set fields, but a field only tests set is what this guard is for
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(path)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// fields["internal/queue.Config"]["Seed"] = has a setter.
	fields := map[string]map[string]bool{}
	for dir, names := range configTypes {
		for _, name := range names {
			fields[dir+"."+name] = nil
		}
	}
	for path, f := range files {
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if _, guarded := fields[dir+"."+ts.Name.Name]; !ok || !guarded {
				return true
			}
			set := map[string]bool{}
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					if name.IsExported() {
						set[name.Name] = false
					}
				}
			}
			fields[dir+"."+ts.Name.Name] = set
			return true
		})
	}
	total := 0
	for typ, set := range fields {
		if set == nil {
			t.Fatalf("config type %s not found", typ)
		}
		total += len(set)
	}

	for path, f := range files {
		markSetters(f, filepath.ToSlash(filepath.Dir(path)), fields)
	}

	var unset []string
	for typ, set := range fields {
		for name, has := range set {
			field := typ + "." + name
			reason, allowed := unsetAllowed[field]
			switch {
			case allowed && has:
				t.Errorf("unsetAllowed lists %s, which a non-test file now sets: drop the entry", field)
			case allowed && reason == "":
				t.Errorf("unsetAllowed lists %s without a reason", field)
			case !allowed && !has:
				unset = append(unset, field)
			}
		}
	}
	for field := range unsetAllowed {
		dot := strings.LastIndex(field, ".")
		if _, ok := fields[field[:dot]][field[dot+1:]]; !ok {
			t.Errorf("unsetAllowed lists %s, which no longer exists: drop the entry", field)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d config fields are set by no non-test file; make each a constant, delete it with its branch, or name it a seam in unsetAllowed:\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
	if total != optionFields {
		t.Errorf("the guarded config types export %d fields, want %d: a new field needs a setter and this count updated with it", total, optionFields)
	}
}

// markSetters records every guarded field one file sets: a Key: of a
// composite literal whose type resolves, through the file's imports, to
// a guarded type, and the field of an x.Field = v assignment. The
// parser alone cannot type x, so an assignment credits every guarded
// type the file imports that has such a field, but never the package's
// own: a package filling in its own defaults (withDefaults) is not a
// caller.
func markSetters(f *ast.File, dir string, fields map[string]map[string]bool) {
	imports := map[string]string{} // local name → package directory
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		p = strings.TrimPrefix(p, "repro/")
		name := p[strings.LastIndex(p, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	// resolve names the guarded type a type expression denotes, if any.
	resolve := func(e ast.Expr) string {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		switch e := e.(type) {
		case *ast.Ident:
			return dir + "." + e.Name
		case *ast.SelectorExpr:
			if pkg, ok := e.X.(*ast.Ident); ok {
				return imports[pkg.Name] + "." + e.Sel.Name
			}
		}
		return ""
	}
	assignable := map[string]bool{} // packages whose fields an assignment here may credit
	for _, p := range imports {
		assignable[p] = true
	}

	var literal func(lit *ast.CompositeLit, implied string)
	literal = func(lit *ast.CompositeLit, implied string) {
		typ, elem := implied, ""
		switch t := lit.Type.(type) {
		case nil:
		case *ast.ArrayType:
			typ, elem = "", resolve(t.Elt)
		case *ast.MapType:
			typ, elem = "", resolve(t.Value)
		default:
			typ = resolve(t)
		}
		for _, el := range lit.Elts {
			kv, isKV := el.(*ast.KeyValueExpr)
			if isKV {
				if key, ok := kv.Key.(*ast.Ident); ok {
					if set, ok := fields[typ]; ok {
						if _, ok := set[key.Name]; ok {
							set[key.Name] = true
						}
					}
				}
				el = kv.Value
			}
			if u, ok := el.(*ast.UnaryExpr); ok && u.Op == token.AND {
				el = u.X
			}
			if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil {
				literal(inner, elem)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if n.Type != nil {
				literal(n, "")
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				for typ, set := range fields {
					if _, ok := set[sel.Sel.Name]; ok && assignable[typ[:strings.LastIndex(typ, ".")]] {
						set[sel.Sel.Name] = true
					}
				}
			}
		}
		return true
	})
}
