package gathernoc

import (
	"bufio"
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
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The API-usage ratchet. A go/types pass over every package of the module,
// with bench/, cmd/ and examples/ counted as users, classifies each exported
// identifier declared in a non-test file under internal/ (package-level
// funcs, types, vars and consts, and exported methods of any named type) by
// who refers to it:
//
//   - the program: a non-test file of another package;
//   - its own package only: the declaring package's non-test files;
//   - tests only, or nothing at all.
//
// A method also counts as referred to wherever a method of an interface it
// satisfies is called, anonymous interfaces in type assertions included, and
// by the program whenever it satisfies an interface of a standard package
// the module imports (the standard library calls those: rand.Source64,
// fmt.Stringer, io.Writer, ...). Struct fields are not tracked.
//
// testdata/api.txt holds the tests-only list, one identifier and its reason
// for staying per line, and the own-package-only count. The test fails on
// any identifier the pass finds that the file lacks, on any file entry the
// pass no longer finds, and on an own-package-only count that differs from
// the file's: lower the count when it falls; it may not rise.

const apiModule = "gathernoc"

// apiUse is a bit set of where an identifier is referred to from.
type apiUse uint8

const (
	useTest    apiUse = 1 << iota // a _test.go file
	useOwn                        // a non-test file of the declaring package
	useProgram                    // a non-test file of any other package
)

type apiDecl struct {
	name string // e.g. "sim.Engine.RunUntil"
	pkg  string // declaring import path
	recv *types.Named
	fn   *types.Func // non-nil for methods
	uses apiUse
}

type apiPkg struct {
	bp      *build.Package
	files   []*ast.File // non-test files
	tests   []*ast.File // in-package test files
	xtests  []*ast.File // external test files
	checked *types.Package
	test    *types.Package // non-test plus in-package test files
}

type apiPass struct {
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*apiPkg
	fileDir  map[string]string // filename → import path of its package
	stdUsed  map[string]*types.Package
	decls    map[token.Pos]*apiDecl
	ifaces   map[string]*apiIface // interface methods referred to, by type
	checking map[string]bool
}

// apiIface is an interface type whose methods are referred to somewhere.
type apiIface struct {
	iface   *types.Interface
	callers map[string]map[string]bool // method name → calling packages ("" for tests)
}

// apiImporter resolves the module's packages from source, each against the
// variant given by over (test variants for external test packages), and
// everything else through the standard importer.
type apiImporter struct {
	p     *apiPass
	under string // the package whose external tests are checked
	over  map[string]*types.Package
}

func (im apiImporter) Import(path string) (*types.Package, error) {
	if pkg := im.over[path]; pkg != nil {
		return pkg, nil
	}
	if path == apiModule || strings.HasPrefix(path, apiModule+"/") {
		if im.under == "" || !im.p.dependsOn(path, im.under) {
			return im.p.check(path)
		}
		// Like go test, rebuild a package that imports the one under
		// test against its test variant.
		tp, err := (&types.Config{Importer: im}).Check(path, im.p.fset, im.p.pkgs[path].files, nil)
		if err != nil {
			return nil, err
		}
		im.over[path] = tp
		return tp, nil
	}
	pkg, err := im.p.std.Import(path)
	if err == nil {
		im.p.stdUsed[path] = pkg
	}
	return pkg, err
}

func loadAPIPass(t *testing.T) *apiPass {
	t.Helper()
	p := &apiPass{
		fset:     token.NewFileSet(),
		pkgs:     map[string]*apiPkg{},
		fileDir:  map[string]string{},
		stdUsed:  map[string]*types.Package{},
		decls:    map[token.Pos]*apiDecl{},
		ifaces:   map[string]*apiIface{},
		checking: map[string]bool{},
	}
	p.std = importer.Default()
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		path := apiModule
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		pkg := &apiPkg{bp: bp}
		for _, list := range []struct {
			names []string
			into  *[]*ast.File
		}{{bp.GoFiles, &pkg.files}, {bp.TestGoFiles, &pkg.tests}, {bp.XTestGoFiles, &pkg.xtests}} {
			for _, name := range list.names {
				file := filepath.Join(dir, name)
				f, err := parser.ParseFile(p.fset, file, nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				p.fileDir[file] = path
				*list.into = append(*list.into, f)
			}
		}
		p.pkgs[path] = pkg
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.pkgs[apiModule+"/bench"] == nil || p.pkgs[apiModule+"/internal/noc"] == nil {
		t.Fatal("the module's packages were not found; run the test from the module root")
	}

	var paths []string
	for path := range p.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := p.check(path); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range paths {
		pkg := p.pkgs[path]
		if len(pkg.tests) > 0 {
			info := newAPIInfo()
			conf := types.Config{Importer: apiImporter{p: p}}
			tp, err := conf.Check(path, p.fset, append(append([]*ast.File{}, pkg.files...), pkg.tests...), info)
			if err != nil {
				t.Fatalf("%s (test): %v", path, err)
			}
			pkg.test = tp
			p.record(info)
		}
		if len(pkg.xtests) > 0 {
			over := map[string]*types.Package{}
			if pkg.test != nil {
				over[path] = pkg.test
			}
			info := newAPIInfo()
			conf := types.Config{Importer: apiImporter{p: p, under: path, over: over}}
			if _, err := conf.Check(path+"_test", p.fset, pkg.xtests, info); err != nil {
				t.Fatalf("%s (external test): %v", path, err)
			}
			p.record(info)
		}
	}
	p.stdInterfaces()
	p.resolveMethods()
	return p
}

func newAPIInfo() *types.Info {
	return &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
}

// check type-checks a package's non-test files once, collects the
// identifiers it declares and records the references its files make.
func (p *apiPass) check(path string) (*types.Package, error) {
	pkg := p.pkgs[path]
	if pkg == nil {
		return nil, fmt.Errorf("package %s not found in the module", path)
	}
	if pkg.checked != nil {
		return pkg.checked, nil
	}
	if p.checking[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	p.checking[path] = true
	info := newAPIInfo()
	conf := types.Config{Importer: apiImporter{p: p}}
	tp, err := conf.Check(path, p.fset, pkg.files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	pkg.checked = tp
	if strings.HasPrefix(path, apiModule+"/internal/") {
		p.declare(tp, info)
	}
	p.record(info)
	return tp, nil
}

// dependsOn reports whether package path imports dep, directly or not.
func (p *apiPass) dependsOn(path, dep string) bool {
	for _, imp := range p.pkgs[path].bp.Imports {
		if imp == dep || (p.pkgs[imp] != nil && p.dependsOn(imp, dep)) {
			return true
		}
	}
	return false
}

// declare collects the tracked identifiers a package defines.
func (p *apiPass) declare(pkg *types.Package, info *types.Info) {
	short := strings.TrimPrefix(pkg.Path(), apiModule+"/internal/")
	for id, obj := range info.Defs {
		if obj == nil || !id.IsExported() {
			continue
		}
		d := &apiDecl{pkg: pkg.Path()}
		switch {
		case obj.Parent() == pkg.Scope():
			d.name = short + "." + obj.Name()
		default:
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil {
				continue
			}
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			named, ok := rt.(*types.Named)
			if !ok || named.Obj().Pkg() != pkg {
				continue // a method of an interface literal
			}
			d.name = short + "." + named.Obj().Name() + "." + obj.Name()
			d.recv, d.fn = named, fn
		}
		p.decls[obj.Pos()] = d
	}
}

// record notes where each reference in info comes from: direct references
// to tracked identifiers, and calls of interface methods.
func (p *apiPass) record(info *types.Info) {
	for id, obj := range info.Uses {
		file := p.fset.File(id.Pos()).Name()
		from := p.fileDir[file] // the referring package; "" for a test file
		if strings.HasSuffix(file, "_test.go") {
			from = ""
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					p.noteInterface(iface, fn.Name(), from)
				}
			}
		}
		// Objects of a test variant sit at the positions of the
		// non-test variant's, so the declaration's position is the key.
		if d := p.decls[obj.Pos()]; d != nil && obj.Pkg() != nil && obj.Pkg().Path() == d.pkg {
			d.uses |= d.useFrom(from)
		}
	}
}

// useFrom classifies a reference from package from ("" for a test file).
func (d *apiDecl) useFrom(from string) apiUse {
	switch from {
	case "":
		return useTest
	case d.pkg:
		return useOwn
	}
	return useProgram
}

func (p *apiPass) noteInterface(iface *types.Interface, method, from string) {
	key := types.TypeString(iface, nil)
	in := p.ifaces[key]
	if in == nil {
		in = &apiIface{iface: iface, callers: map[string]map[string]bool{}}
		p.ifaces[key] = in
	}
	if in.callers[method] == nil {
		in.callers[method] = map[string]bool{}
	}
	in.callers[method][from] = true
}

// stdInterfaces counts every method of every exported interface of an
// imported standard package as called by the standard library, and so the
// methods of error and the anonymous interfaces errors.Is, As and Unwrap
// assert.
func (p *apiPass) stdInterfaces() {
	errType := types.Universe.Lookup("error").Type()
	p.noteInterface(errType.Underlying().(*types.Interface), "Error", "std")
	for _, unwrap := range []types.Type{errType, types.NewSlice(errType)} {
		sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", unwrap)), false)
		m := types.NewFunc(token.NoPos, nil, "Unwrap", sig)
		p.noteInterface(types.NewInterfaceType([]*types.Func{m}, nil).Complete(), "Unwrap", "std")
	}
	for _, pkg := range p.stdUsed {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				p.noteInterface(iface, iface.Method(i).Name(), "std")
			}
		}
	}
}

// resolveMethods credits each tracked method with the uses of every
// referred-to interface method its type satisfies. Interfaces from a test
// variant name that variant's types, so satisfaction compares method
// signatures as strings rather than with types.Implements.
func (p *apiPass) resolveMethods() {
	qual := func(pkg *types.Package) string { return pkg.Path() }
	sig := func(t types.Type) string { // parameter names and receiver left out
		s := t.(*types.Signature)
		var b strings.Builder
		for _, tuple := range []*types.Tuple{s.Params(), s.Results()} {
			b.WriteByte('(')
			for i := 0; i < tuple.Len(); i++ {
				b.WriteString(types.TypeString(tuple.At(i).Type(), qual) + ",")
			}
			b.WriteByte(')')
		}
		if s.Variadic() {
			b.WriteString("...")
		}
		return b.String()
	}
	sets := map[*types.Named]map[string]string{}
	methods := func(named *types.Named) map[string]string {
		if ms := sets[named]; ms != nil {
			return ms
		}
		ms := map[string]string{}
		mset := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < mset.Len(); i++ {
			obj := mset.At(i).Obj()
			ms[obj.Name()] = sig(obj.Type())
		}
		sets[named] = ms
		return ms
	}
	satisfies := func(named *types.Named, iface *types.Interface) bool {
		ms := methods(named)
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			if s, ok := ms[m.Name()]; !ok || s != sig(m.Type()) {
				return false
			}
		}
		return true
	}
	for _, d := range p.decls {
		if d.fn == nil {
			continue
		}
		for _, in := range p.ifaces {
			var kind apiUse
			for from := range in.callers[d.fn.Name()] {
				kind |= d.useFrom(from)
			}
			if kind|d.uses != d.uses && satisfies(d.recv, in.iface) {
				d.uses |= kind
			}
		}
	}
}

// classify returns the tests-only-or-unused identifiers, sorted, and the
// own-package-only count.
func (p *apiPass) classify() (testsOnly []string, ownOnly []string) {
	for _, d := range p.decls {
		switch {
		case d.uses&useProgram != 0:
		case d.uses&useOwn != 0:
			ownOnly = append(ownOnly, d.name)
		default:
			testsOnly = append(testsOnly, d.name)
		}
	}
	sort.Strings(testsOnly)
	sort.Strings(ownOnly)
	return testsOnly, ownOnly
}

// readAPIFile parses testdata/api.txt: "own-package-only N" once, and
// "<identifier> <reason>" per tests-only entry; # starts a comment line.
func readAPIFile(t *testing.T) (entries map[string]string, ownOnly int) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "api.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries = map[string]string{}
	ownOnly = -1
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		if name == "own-package-only" {
			if ownOnly, err = strconv.Atoi(reason); err != nil {
				t.Fatalf("api.txt:%d: bad count %q", n, reason)
			}
			continue
		}
		if reason == "" {
			t.Errorf("api.txt:%d: %s gives no reason", n, name)
		}
		if _, dup := entries[name]; dup {
			t.Errorf("api.txt:%d: %s listed twice", n, name)
		}
		entries[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if ownOnly < 0 {
		t.Fatal("api.txt has no own-package-only line")
	}
	return entries, ownOnly
}

// TestAPIUsage is the ratchet: an exported identifier that only tests call
// (or nothing does) needs a line in testdata/api.txt saying why it stays,
// and a line whose identifier the program now uses, or that is gone, must
// go too.
func TestAPIUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	p := loadAPIPass(t)
	testsOnly, ownOnly := p.classify()
	entries, ownCount := readAPIFile(t)
	found := map[string]bool{}
	for _, name := range testsOnly {
		found[name] = true
		if _, ok := entries[name]; !ok {
			t.Errorf("%s is called only by tests, or by nothing: delete it, point its tests at what the program runs, or list it in testdata/api.txt with a reason", name)
		}
	}
	for name := range entries {
		if !found[name] {
			t.Errorf("testdata/api.txt lists %s, which the program now uses or which is gone: remove the line", name)
		}
	}
	switch n := len(ownOnly); {
	case n > ownCount:
		t.Errorf("%d exported identifiers are referred to only inside their own package, more than testdata/api.txt's %d: unexport the new ones", n, ownCount)
	case n < ownCount:
		t.Errorf("own-package-only count fell to %d: lower it in testdata/api.txt (from %d)", n, ownCount)
	}
	if t.Failed() {
		t.Logf("tests only or unused (%d):\n%s", len(testsOnly), strings.Join(testsOnly, "\n"))
	}
}
