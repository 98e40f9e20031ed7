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
// fmt.Stringer, io.Writer, ...).
//
// The exported fields of the exported struct types under internal/ whose
// names end in Config or Options are classified the same way, but by who
// writes them, since a knob nothing sets is no option: a keyed
// composite-literal element, an assignment or inc/dec target, or the
// operand of &. Writing x.A.B writes B and A both.
//
// testdata/api.txt holds the tests-only list, one identifier or field and
// its reason for staying per line, and the own-package-only counts of each.
// The test fails on any identifier or field the pass finds that the file
// lacks, on any file entry the pass no longer finds, and on an
// own-package-only count that differs from the file's: lower a count when
// it falls; it may not rise.

const apiModule = "gathernoc"

// apiUse is a bit set of where an identifier is referred to from.
type apiUse uint8

const (
	useTest    apiUse = 1 << iota // a _test.go file
	useOwn                        // a non-test file of the declaring package
	useProgram                    // a non-test file of any other package
)

type apiDecl struct {
	name  string // e.g. "sim.Engine.RunUntil"
	pkg   string // declaring import path
	recv  *types.Named
	fn    *types.Func // non-nil for methods
	field bool        // a *Config/*Options field: uses are writes
	uses  apiUse
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
			p.record(info, pkg.tests)
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
			p.record(info, pkg.xtests)
		}
	}
	p.stdInterfaces()
	p.resolveMethods()
	return p
}

func newAPIInfo() *types.Info {
	return &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
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
	p.record(info, pkg.files)
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
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				p.decls[f.Pos()] = &apiDecl{name: short + "." + name + "." + f.Name(), pkg: pkg.Path(), field: true}
			}
		}
	}
}

// record notes where each reference in info comes from: direct references
// to tracked identifiers, calls of interface methods, and writes to tracked
// fields.
func (p *apiPass) record(info *types.Info, files []*ast.File) {
	for id, obj := range info.Uses {
		from := p.from(id.Pos())
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					p.noteInterface(iface, fn.Name(), from)
				}
			}
		}
		// Objects of a test variant sit at the positions of the
		// non-test variant's, so the declaration's position is the key.
		if d := p.decls[obj.Pos()]; d != nil && !d.field && obj.Pkg() != nil && obj.Pkg().Path() == d.pkg {
			d.uses |= d.useFrom(from)
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				p.literalWrites(info, n)
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					p.writes(info, lhs)
				}
			case *ast.IncDecStmt:
				p.writes(info, n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					p.writes(info, n.X)
				}
			}
			return true
		})
	}
}

// from returns the package a position's file belongs to, "" for a test file.
func (p *apiPass) from(pos token.Pos) string {
	file := p.fset.File(pos).Name()
	if strings.HasSuffix(file, "_test.go") {
		return ""
	}
	return p.fileDir[file]
}

// noteWrite credits a write at pos to field obj when it is tracked.
func (p *apiPass) noteWrite(obj types.Object, pos token.Pos) {
	if d := p.decls[obj.Pos()]; d != nil && d.field && obj.Pkg() != nil && obj.Pkg().Path() == d.pkg {
		d.uses |= d.useFrom(p.from(pos))
	}
}

// literalWrites notes the fields a keyed struct literal sets.
func (p *apiPass) literalWrites(info *types.Info, lit *ast.CompositeLit) {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return
		}
		if key, ok := kv.Key.(*ast.Ident); ok {
			if v, ok := info.Uses[key].(*types.Var); ok && v.IsField() {
				p.noteWrite(v, key.Pos())
			}
		}
	}
}

// writes notes every field selected along a written expression's operand
// chain: x.A.B[i].C writes C, B and A.
func (p *apiPass) writes(info *types.Info, x ast.Expr) {
	for {
		switch e := x.(type) {
		case *ast.ParenExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				p.noteWrite(sel.Obj(), e.Sel.Pos())
			}
			x = e.X
		default:
			return
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

// apiCounts is the pass's classification: the tests-only-or-unused
// identifiers and fields, sorted, and the own-package-only ones of each.
type apiCounts struct {
	testsOnly, ownOnly, ownOnlyFields []string
	fields, programFields             int
}

func (p *apiPass) classify() apiCounts {
	var c apiCounts
	for _, d := range p.decls {
		if d.field {
			c.fields++
		}
		switch {
		case d.uses&useProgram != 0:
			if d.field {
				c.programFields++
			}
		case d.uses&useOwn != 0 && d.field:
			c.ownOnlyFields = append(c.ownOnlyFields, d.name)
		case d.uses&useOwn != 0:
			c.ownOnly = append(c.ownOnly, d.name)
		default:
			c.testsOnly = append(c.testsOnly, d.name)
		}
	}
	sort.Strings(c.testsOnly)
	sort.Strings(c.ownOnly)
	sort.Strings(c.ownOnlyFields)
	return c
}

// The two count lines of testdata/api.txt.
const (
	ownOnlyKey       = "own-package-only"
	ownOnlyFieldsKey = "own-package-only-fields"
)

// readAPIFile parses testdata/api.txt: each count line ("own-package-only N",
// "own-package-only-fields N") once, and "<identifier> <reason>" per
// tests-only entry; # starts a comment line.
func readAPIFile(t *testing.T) (entries map[string]string, counts map[string]int) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "api.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, counts = map[string]string{}, map[string]int{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		if name == ownOnlyKey || name == ownOnlyFieldsKey {
			if counts[name], err = strconv.Atoi(reason); err != nil {
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
	for _, key := range []string{ownOnlyKey, ownOnlyFieldsKey} {
		if _, ok := counts[key]; !ok {
			t.Fatalf("api.txt has no %s line", key)
		}
	}
	return entries, counts
}

// TestAPIUsage is the ratchet: an exported identifier that only tests call
// (or nothing does), or a *Config/*Options field that only tests set, needs
// a line in testdata/api.txt saying why it stays, and a line whose entry
// the program now uses, or that is gone, must go too.
func TestAPIUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	p := loadAPIPass(t)
	c := p.classify()
	entries, counts := readAPIFile(t)
	fields := map[string]bool{}
	for _, d := range p.decls {
		fields[d.name] = d.field
	}
	found := map[string]bool{}
	for _, name := range c.testsOnly {
		found[name] = true
		if _, ok := entries[name]; ok {
			continue
		}
		if fields[name] {
			t.Errorf("%s is set only by tests, or by nothing: delete it, point its tests at what the program sets, or list it in testdata/api.txt with a reason", name)
		} else {
			t.Errorf("%s is called only by tests, or by nothing: delete it, point its tests at what the program runs, or list it in testdata/api.txt with a reason", name)
		}
	}
	for name := range entries {
		if !found[name] {
			t.Errorf("testdata/api.txt lists %s, which the program now uses or which is gone: remove the line", name)
		}
	}
	for _, own := range []struct {
		key, what string
		names     []string
	}{
		{ownOnlyKey, "exported identifiers are referred to", c.ownOnly},
		{ownOnlyFieldsKey, "*Config/*Options fields are set", c.ownOnlyFields},
	} {
		switch n, want := len(own.names), counts[own.key]; {
		case n > want:
			t.Errorf("%d %s only inside their own package, more than testdata/api.txt's %s %d: unexport or delete the new ones", n, own.what, own.key, want)
		case n < want:
			t.Errorf("%s count fell to %d: lower it in testdata/api.txt (from %d)", own.key, n, want)
		}
	}
	t.Logf("%d *Config/*Options fields: %d set by the program, %d only inside their own package, the rest only by tests or by nothing",
		c.fields, c.programFields, len(c.ownOnlyFields))
	if t.Failed() {
		t.Logf("tests only or unused (%d):\n%s", len(c.testsOnly), strings.Join(c.testsOnly, "\n"))
		t.Logf("fields set only inside their own package (%d):\n%s", len(c.ownOnlyFields), strings.Join(c.ownOnlyFields, "\n"))
	}
}
