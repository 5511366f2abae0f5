// Package deadcode holds one check: every exported identifier declared
// under internal/ is named by some non-test Go file of the module
// (benchmark/, cmd/ and examples/ included), or sits on allowed below
// with its reason. A test that needs an otherwise unused identifier
// declares it in its package's export_test.go.
//
// The check parses and type-checks every non-test package of the module
// from source (go/parser, go/types; the standard library through the
// source importer), so a use is resolved to the object it names, not
// matched by name. A method also counts as used when it implements a
// method of a standard-library interface, or of a module interface whose
// method is used.
package deadcode

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowed maps "package.Name" or "package.Type.Method" to why the
// identifier stays exported with no non-test use. Each is read by the
// tests of another package, which an export_test.go cannot reach.
var allowed = map[string]string{
	"cache.L1.Outstanding":     "cpu's and checkpoint's tests check misses in flight",
	"core.CPM.Fetched":         "checkpoint's fork test checks the CPM is mid-stream at the snapshot",
	"core.CPM.Inflight":        "checkpoint's fork test checks the CPM is mid-stream at the snapshot",
	"core.CPM.InstrBufLen":     "checkpoint's fork test checks the CPM is mid-stream at the snapshot",
	"core.Platform.Quiesced":   "compiler's fuzz test checks the platform drained",
	"cpu.CoreState.Blocked":    "checkpoint's fork test checks cores are blocked at the snapshot",
	"flat.Links.Idle":          "cache's drain and snapshot tests",
	"flat.Links.Len":           "cache's drain and snapshot tests",
	"flat.Pool.Idle":           "core's tests bound the token pools",
	"flat.Pool.Out":            "cache's, core's and noc's drain checks",
	"flat.Ring.At":             "core's snapshot test lists the RCU and CPM rings",
	"flat.Slots.FreeSlots":     "cache's slab and snapshot tests",
	"flat.Slots.Len":           "cache's slab and snapshot tests",
	"noc.Built":                "experiments' TestDSENetworkBuilds counts a sweep's network builds",
	"sim.Engine.SetQuiescence": "noc's quiescence-equivalence tests run the evaluate-everything reference",
}

// module is the module's non-test packages, type-checked on demand.
type module struct {
	root, path string
	fset       *token.FileSet
	std        types.Importer
	pkgs       map[string]*types.Package
	info       *types.Info
}

func (m *module) Import(path string) (*types.Package, error) {
	if path != m.path && !strings.HasPrefix(path, m.path+"/") {
		return m.std.Import(path)
	}
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(m.root, strings.TrimPrefix(strings.TrimPrefix(path, m.path), "/"))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// load type-checks every package of the module that has non-test Go
// files and returns the set of objects they name.
func load(t *testing.T) (*module, map[types.Object]bool) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	m := &module{
		root: root, path: "snacknoc", fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			return nil // no non-test Go files here
		}
		rel, _ := filepath.Rel(root, path)
		_, err = m.Import(filepath.ToSlash(filepath.Join(m.path, rel)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	used := map[types.Object]bool{}
	for _, obj := range m.info.Uses {
		used[origin(obj)] = true
	}
	return m, used
}

// origin maps an object of an instantiated generic to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// liveInterfaces returns the interfaces whose implementations may count
// as used: every exported named interface of the standard library
// packages the module imports, and every named interface of its own.
func (m *module) liveInterfaces() []*types.Named {
	var out []*types.Named
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() && !strings.HasPrefix(p.Path(), m.path) {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && types.IsInterface(n) && n.TypeParams() == nil {
				out = append(out, n)
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range m.pkgs {
		walk(p)
	}
	return out
}

// implementsLive reports whether method fn of named type n implements a
// method of a standard-library interface, or of a module interface whose
// method is used.
func (m *module) implementsLive(n *types.Named, fn *types.Func, ifaces []*types.Named, used map[types.Object]bool) bool {
	if n.TypeParams() != nil {
		return false
	}
	for _, in := range ifaces {
		it := in.Underlying().(*types.Interface)
		for i := 0; i < it.NumMethods(); i++ {
			im := it.Method(i)
			if im.Name() != fn.Name() {
				continue
			}
			if !types.Implements(n, it) && !types.Implements(types.NewPointer(n), it) {
				continue
			}
			if !strings.HasPrefix(im.Pkg().Path(), m.path) || used[im] {
				return true
			}
		}
	}
	return false
}

// TestNoDeadExports fails on an exported identifier under internal/ that
// no non-test file of the module names.
func TestNoDeadExports(t *testing.T) {
	m, used := load(t)
	ifaces := m.liveInterfaces()
	var dead []string
	seen := map[string]bool{}
	report := func(name string, obj types.Object) {
		seen[name] = true
		if _, ok := allowed[name]; !ok {
			dead = append(dead, fmt.Sprintf("%s (%s)", name, m.fset.Position(obj.Pos())))
		}
	}
	for path, p := range m.pkgs {
		if !strings.HasPrefix(path, m.path+"/internal/") {
			continue
		}
		pkg := p.Name()
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if obj.Exported() && !used[obj] {
				report(pkg+"."+name, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				fn := n.Method(i)
				if fn.Exported() && !used[fn] && !m.implementsLive(n, fn, ifaces, used) {
					report(pkg+"."+name+"."+fn.Name(), fn)
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but named by no non-test file: %s", d)
	}
	var stale []string
	for name := range allowed {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("allowed lists %s, which is used or gone; drop the entry", name)
	}
}
