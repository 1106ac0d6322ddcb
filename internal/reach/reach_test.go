//go:build !race

// Type-checking the module and the standard library it imports takes ≈ 15 s
// under the race detector and has nothing for it to watch.

package reach

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// allowlist names the exported internal names that no non-test file
// references and that stay anyway, each with its reason: fixtures that other
// packages' tests build on, so they cannot live in a _test.go file. Keys are
// the package path relative to the module, then the name or Type.Method.
var allowlist = map[string]string{
	"internal/cluster/route.NewFaultProxy":   "fault fixture: the root package's routed tests put it in front of a replica",
	"internal/cluster/route.FaultProxy.Hits": "fault fixture: counts the requests a FaultProxy saw",
	"internal/cluster/route.FaultProxy.Set":  "fault fixture: switches a FaultProxy's fault mid-test",
	"internal/vfs.NewFault":                  "fault fixture: the crash matrices' file system",
	"internal/vfs.FaultFS.CrashAt":           "fault fixture: arms a crash at the n-th durable op",
	"internal/vfs.FaultFS.Crashed":           "fault fixture: reports whether the armed crash fired",
	"internal/vfs.FaultFS.FailOp":            "fault fixture: fails one op with an error",
	"internal/vfs.FaultFS.KindOps":           "fault fixture: the crash matrices enumerate their points from it",
	"internal/vfs.FaultFS.OpKinds":           "fault fixture: the op kinds a run recorded",
	"internal/vfs.FaultFS.Ops":               "fault fixture: the durable ops a run recorded",
	"internal/vfs.FaultFS.ShortCrashWrites":  "fault fixture: makes the crashing write a short one",
	"internal/core.BuildSubTree":             "test oracle: the paper's ERa-str+mem sub-tree, which the counted sub-trees are held to",
	"internal/suffixtree.Flatten":            "test oracle: flattens a heap tree, so builders are compared image to image",
	"internal/suffixtree.Tree.Validate":      "test oracle: the structural check of every heap tree a builder test makes",
	"internal/seq.NewMem":                    "test oracle: the in-memory string the oracles build over",
	"internal/workload.Kinds":                "shared test input: the generator kinds tests sweep",
	"internal/server.Engine.Unload":          "router-test fixture: takes a replica's index away mid-test",
	"internal/server.BatchRequest":           "router-test fixture: the /v1/batch body tests send",
}

// TestInternalNamesAreReached fails on any exported name of an internal
// package that no non-test file of the module references, unless it is a
// method its type needs to implement an interface that declares it, or the
// allowlist names it. The root package's API is exempt: it is the product.
func TestInternalNamesAreReached(t *testing.T) {
	m := loadModule(t)

	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	for _, p := range m.order {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, scopeInterfaces(m.order)...)

	var unreached []string
	found := map[string]bool{}
	report := func(key string, obj types.Object) {
		if _, ok := allowlist[key]; ok {
			found[key] = true
			return
		}
		pos := m.fset.Position(obj.Pos())
		if rel, err := filepath.Rel(m.root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		unreached = append(unreached, fmt.Sprintf("%s: %s", pos, key))
	}
	for _, p := range m.order {
		rel := strings.TrimPrefix(p.types.Path(), m.path+"/")
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				report(rel+"."+name, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := range named.NumMethods() {
				fn := named.Method(i)
				if fn.Exported() && !used[fn] && !implements(named, fn.Name(), ifaces) {
					report(rel+"."+name+"."+fn.Name(), fn)
				}
			}
		}
	}
	slices.Sort(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d exported internal names are referenced by no non-test file: delete them, move them into a test, or allowlist them with a reason:\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
	for key := range allowlist {
		if !found[key] {
			t.Errorf("allowlist entry %s names nothing unreached (reached now, or gone): delete the entry", key)
		}
	}
}

// origin returns the generic declaration behind an instantiated method or
// field, so a use through an instance counts for the declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// implements reports whether named or its pointer implements an interface
// that declares a method called name — the method is then reached through
// the interface, whoever calls it.
func implements(named *types.Named, name string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		declares := false
		for i := range it.NumMethods() {
			if it.Method(i).Name() == name {
				declares = true
				break
			}
		}
		if declares && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}

// scopeInterfaces returns the universe's error interface and every
// non-generic interface type declared at package level in pkgs and in the
// packages they import, transitively.
func scopeInterfaces(pkgs []*pkg) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range pkgs {
		visit(p.types)
	}
	return out
}

// module is the type-checked tree: every package's non-test files, those of
// the modules nested in it (the benchmark, which imports internal packages
// through a replace directive) included, checked once, with the standard
// library imported from source.
type module struct {
	path  string  // the module the test belongs to: the one whose names are checked
	root  string  // its directory
	roots []mroot // every module in the tree, the longest path first
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*pkg // by import path; nil while being checked
	order []*pkg          // in the order checked, dependencies first
}

// mroot is one module of the tree: its path and its directory.
type mroot struct{ path, dir string }

type pkg struct {
	types *types.Package
	info  *types.Info
}

// modulePath returns the module path dir's go.mod declares, or "" when dir
// holds no go.mod.
func modulePath(dir string) (string, error) {
	gomod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if errors.Is(err, fs.ErrNotExist) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod declares no module path", dir)
}

// loadModule type-checks every package of the module that holds the test's
// working directory and of the modules nested in it, skipping testdata and
// dot or underscore directories, as the go command does.
func loadModule(t *testing.T) *module {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var path string
	for {
		if path, err = modulePath(root); err != nil {
			t.Fatal(err)
		} else if path != "" {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			t.Fatal("no go.mod above the working directory")
		}
		root = parent
	}

	// The pure-Go variants of the standard library check without a C
	// toolchain, and which variant is read changes no name of the module.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &module{path: path, root: root, fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*pkg{}}
	var dirs, ips []string
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ip := path
		if dir != root {
			ip = ips[slices.Index(dirs, filepath.Dir(dir))] + "/" + name
		}
		mp, err := modulePath(dir)
		if mp != "" {
			ip = mp
			m.roots = append(m.roots, mroot{mp, dir})
		}
		dirs, ips = append(dirs, dir), append(ips, ip)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(m.roots, func(a, b mroot) int { return len(b.path) - len(a.path) })
	for _, ip := range ips {
		if _, err := m.load(ip); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// dirOf returns the directory of the package at import path ip, or "" when
// no module of the tree holds it.
func (m *module) dirOf(ip string) string {
	for _, r := range m.roots {
		if rest, ok := strings.CutPrefix(ip, r.path); ok && (rest == "" || rest[0] == '/') {
			return filepath.Join(r.dir, filepath.FromSlash(rest))
		}
	}
	return ""
}

// Import implements types.Importer: the tree's packages are checked here,
// the rest come from the standard library's source.
func (m *module) Import(path string) (*types.Package, error) {
	if m.dirOf(path) == "" {
		return m.std.Import(path)
	}
	p, err := m.load(path)
	if err == nil && p == nil {
		err = fmt.Errorf("%s has no Go files", path)
	}
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load checks the package at import path ip once, returning nil for a
// directory without non-test Go files.
func (m *module) load(ip string) (*pkg, error) {
	if p, ok := m.pkgs[ip]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", ip)
		}
		return p, nil
	}
	dir := m.dirOf(ip)
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) || (err == nil && len(bp.GoFiles) == 0) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	m.pkgs[ip] = nil
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(ip, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &pkg{types: tp, info: info}
	m.pkgs[ip] = p
	m.order = append(m.order, p)
	return p, nil
}
