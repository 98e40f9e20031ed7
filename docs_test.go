package gathernoc

import (
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// markdownFiles returns the repository's markdown files (the tree walked
// from the module root, VCS and tool directories skipped).
func markdownFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(".", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if name := info.Name(); name == ".git" || name == ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found")
	}
	return files
}

// TestMarkdownLinksResolve is the docs gate's link check: every relative
// markdown link target in the repository's documentation must exist on
// disk, so renames and deletions cannot silently orphan the docs.
// External schemes and pure anchors are out of scope (no network in CI).
func TestMarkdownLinksResolve(t *testing.T) {
	linkRE := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	for _, path := range markdownFiles(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRE.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%v)", path, m[1], err)
			}
		}
	}
}

// TestDesignSectionReferencesResolve verifies that every "DESIGN.md §N"
// reference — in the markdown docs and in Go doc comments across the
// tree — names a section heading that actually exists, so DESIGN.md
// renumbering cannot strand stale pointers.
func TestDesignSectionReferencesResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headingRE := regexp.MustCompile(`(?m)^## §(\d+)`)
	have := map[string]bool{}
	for _, m := range headingRE.FindAllStringSubmatch(string(design), -1) {
		have[m[1]] = true
	}
	if len(have) == 0 {
		t.Fatal("DESIGN.md has no §N section headings")
	}

	refRE := regexp.MustCompile(`DESIGN(?:\.md)? (?:§|&sect;)(\d+)`)
	var sources []string
	sources = append(sources, markdownFiles(t)...)
	err = filepath.Walk(".", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if info.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			sources = append(sources, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range sources {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range refRE.FindAllStringSubmatch(string(data), -1) {
			if !have[m[1]] {
				t.Errorf("%s: references DESIGN.md §%s, which does not exist", path, m[1])
			}
		}
	}
}

// TestDocsNameExistingCode keeps README.md and DESIGN.md naming only code
// that exists: every backticked `pkg.Ident` or `pkg.Type.Member`, Ident
// exported and a call's arguments aside, whose pkg is one of the module's
// packages (not a metric such as `sim.evaluated`) must resolve
// against the packages the API-usage pass type-checks. `pkg.Method` is
// allowed as shorthand when some type in pkg has that method. ROADMAP.md and
// CHANGES.md record history and are not checked.
func TestDocsNameExistingCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	p := loadAPIPass(t)
	pkgs := map[string]*types.Package{}
	for _, pkg := range p.pkgs {
		if tp := pkg.checked; tp.Name() != "main" {
			pkgs[tp.Name()] = tp
		}
	}
	fenceRE := regexp.MustCompile("(?ms)^```.*?^```")
	spanRE := regexp.MustCompile("`([^`\n]+)`")
	refRE := regexp.MustCompile(`^([a-z]\w*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?(?:\(.*\))?$`)
	for _, path := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := fenceRE.ReplaceAllString(string(data), "")
		for _, span := range spanRE.FindAllStringSubmatch(text, -1) {
			m := refRE.FindStringSubmatch(span[1])
			if m == nil || pkgs[m[1]] == nil {
				continue
			}
			if !docRefResolves(pkgs[m[1]], m[2], m[3]) {
				t.Errorf("%s: `%s` names no %s in package %s", path, span[1], strings.TrimSuffix(m[2]+"."+m[3], "."), m[1])
			}
		}
	}
}

// docRefResolves reports whether pkg declares name (and member on it, when
// member is not empty), or, with no member, whether some type in pkg has a
// method called name.
func docRefResolves(pkg *types.Package, name, member string) bool {
	scope := pkg.Scope()
	if obj := scope.Lookup(name); obj != nil {
		if member == "" {
			return true
		}
		found, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, member)
		return found != nil
	}
	if member != "" {
		return false
	}
	for _, n := range scope.Names() {
		if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
			if found, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, name); found != nil {
				if _, isMethod := found.(*types.Func); isMethod {
					return true
				}
			}
		}
	}
	return false
}
