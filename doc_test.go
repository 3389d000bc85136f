package uhtm_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestInternalPackagesDocumented fails when any internal/* package lacks
// a package doc comment. ARCHITECTURE.md's package map assumes every
// package states its own role in the design; an undocumented package is
// doc drift, caught here rather than in review.
func TestInternalPackagesDocumented(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no internal packages found — run from the repo root")
	}
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Errorf("%s: %v", dir, err)
			continue
		}
		for name, pkg := range pkgs {
			if strings.HasSuffix(name, "_test") {
				continue
			}
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				t.Errorf("package %s (%s) has no package doc comment", name, dir)
			}
		}
	}
}

// TestExportedIdentifiersDocumented requires a doc comment on every
// exported top-level identifier of every internal package — added with
// internal/server (a network-facing API whose docs SERVING.md links
// into), and enforced repo-wide so no package regresses below it.
//
// A constant or variable inside a grouped declaration also counts as
// documented when the group itself has a doc comment (the standard Go
// idiom, e.g. "Common durations." over sim's time units) or when a
// sibling spec's doc comment in the same group mentions it by name
// (the idiom used for families like "EvTxRead / EvTxWrite: ..." in
// internal/trace, whose const block has no group doc).
func TestExportedIdentifiersDocumented(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Errorf("%s: %v", dir, err)
			continue
		}
		for _, pkg := range pkgs {
			for fname, f := range pkg.Files {
				for _, decl := range f.Decls {
					checkDeclDocumented(t, fset, fname, decl)
				}
			}
		}
	}
}

// checkDeclDocumented reports undocumented exported identifiers in one
// top-level declaration.
func checkDeclDocumented(t *testing.T, fset *token.FileSet, fname string, decl ast.Decl) {
	t.Helper()
	undocumented := func(pos token.Pos, what, name string) {
		t.Errorf("%s:%d: exported %s %s has no doc comment",
			fname, fset.Position(pos).Line, what, name)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil {
			what := "function"
			if d.Recv != nil {
				what = "method"
			}
			undocumented(d.Pos(), what, d.Name.Name)
		}
	case *ast.GenDecl:
		// Gather every comment in the group so "documented by mention"
		// can be resolved against siblings.
		var groupDocs []string
		if d.Doc != nil {
			groupDocs = append(groupDocs, d.Doc.Text())
		}
		for _, spec := range d.Specs {
			if s, ok := spec.(*ast.ValueSpec); ok {
				if s.Doc != nil {
					groupDocs = append(groupDocs, s.Doc.Text())
				}
				if s.Comment != nil {
					groupDocs = append(groupDocs, s.Comment.Text())
				}
			}
		}
		mentioned := func(name string) bool {
			re := regexp.MustCompile(fmt.Sprintf(`\b%s\b`, regexp.QuoteMeta(name)))
			for _, doc := range groupDocs {
				if re.MatchString(doc) {
					return true
				}
			}
			return false
		}
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
					undocumented(s.Pos(), "type", s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if !n.IsExported() {
						continue
					}
					if d.Doc == nil && s.Doc == nil && s.Comment == nil && !mentioned(n.Name) {
						undocumented(n.Pos(), "value", n.Name)
					}
				}
			}
		}
	}
}

// callerExempt are method names that satisfy interfaces of the standard
// library (fmt.Stringer, error, json.Marshaler, sort.Interface,
// io.Reader/Writer): they are called through the interface, never by
// name.
var callerExempt = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Read": true, "Write": true,
}

// TestExportedFuncsHaveCallers fails for an exported function or method
// declared in a non-test file under internal/ whose name appears as an
// identifier nowhere in the module or perfbench/ outside its own
// declaration. Tests count as callers. The check goes by name, so a
// method is kept alive by a use of any same-named identifier; what it
// catches is an entry point that nothing at all refers to any more.
// Test, benchmark and fuzz functions and the standard interface
// methods in callerExempt are exempt.
func TestExportedFuncsHaveCallers(t *testing.T) {
	// One FileSet gives every file its own position range, so a use
	// lies outside a declaration exactly when its position does.
	fset := token.NewFileSet()
	var decls []*ast.FuncDecl
	uses := map[string][]token.Pos{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasPrefix(path, "internal"+string(filepath.Separator)) && !strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() || strings.HasPrefix(fn.Name.Name, "Test") ||
					strings.HasPrefix(fn.Name.Name, "Benchmark") || strings.HasPrefix(fn.Name.Name, "Fuzz") ||
					(fn.Recv != nil && callerExempt[fn.Name.Name]) {
					continue
				}
				decls = append(decls, fn)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/ — run from the repo root")
	}
	for _, fn := range decls {
		called := false
		for _, pos := range uses[fn.Name.Name] {
			if pos < fn.Pos() || pos >= fn.End() {
				called = true
				break
			}
		}
		if !called {
			what := "function"
			if fn.Recv != nil {
				what = "method"
			}
			t.Errorf("%s: exported %s %s is referenced nowhere outside its declaration", fset.Position(fn.Pos()), what, fn.Name.Name)
		}
	}
}

// referenceDocs are the top-level documents that describe the code as
// it is. History and planning documents (CHANGES.md, ROADMAP.md) are
// left out: they name identifiers that are gone or still to come.
var referenceDocs = []string{
	"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md", "RECOVERY.md", "SERVING.md",
}

// docRef matches a backticked `pkg.Ident`, `pkg.Type.Member` or either
// with a trailing "()".
var docRef = regexp.MustCompile("`([a-z]+)\\.([A-Z]\\w*)(?:\\.([A-Z]\\w*))?(?:\\(\\))?`")

// testFuncRef matches a backticked bare test, benchmark or fuzz
// function name, optionally with a trailing "()".
var testFuncRef = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)\\w*)(?:\\(\\))?`")

// TestDocReferencesResolve fails when a reference document names an
// internal package identifier that does not exist: every backticked
// `pkg.Ident` must be an exported top-level declaration of
// internal/pkg (a test function counts), and every `pkg.Type.Member` a
// method, field or interface method of that type. Every backticked
// bare `TestX`, `BenchmarkX` or `FuzzX` must be a function in some
// _test.go file of the module. A rename or deletion that leaves the
// prose behind is caught here.
func TestDocReferencesResolve(t *testing.T) {
	testFuncs := moduleTestFuncs(t)
	idents := map[string]map[string]bool{} // package → declared names, "Type.Member" included
	exported := func(pkg string) map[string]bool {
		if names, ok := idents[pkg]; ok {
			return names
		}
		dir := filepath.Join("internal", pkg)
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			idents[pkg] = nil
			return nil
		}
		names := map[string]bool{}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, p := range pkgs { // test files too: docs cite tests by name
			for _, f := range p.Files {
				for _, decl := range f.Decls {
					collectDeclNames(decl, names)
				}
			}
		}
		idents[pkg] = names
		return names
	}

	resolved := 0
	for _, doc := range referenceDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFuncRef.FindAllStringSubmatch(string(b), -1) {
			if !testFuncs[m[1]] {
				t.Errorf("%s: %s names no function in any _test.go file", doc, m[0])
				continue
			}
			resolved++
		}
		for _, m := range docRef.FindAllStringSubmatch(string(b), -1) {
			names := exported(m[1])
			if names == nil {
				continue // not an internal package (e.g. `time.Sleep`)
			}
			name := m[2]
			if m[3] != "" {
				name += "." + m[3]
			}
			if !names[name] {
				t.Errorf("%s: %s names no exported identifier of internal/%s", doc, m[0], m[1])
				continue
			}
			resolved++
		}
	}
	if resolved == 0 {
		t.Fatal("no internal package references found — run from the repo root")
	}
}

// moduleTestFuncs returns the names of the top-level functions declared
// in the _test.go files of the repo root and of every package under
// internal/ and cmd/.
func moduleTestFuncs(t *testing.T) map[string]bool {
	t.Helper()
	dirs := []string{"."}
	for _, pattern := range []string{"internal/*", "cmd/*"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, m...)
	}
	names := map[string]bool{}
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, p := range pkgs {
			for _, f := range p.Files {
				for _, decl := range f.Decls {
					if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
						names[fn.Name.Name] = true
					}
				}
			}
		}
	}
	return names
}

// collectDeclNames adds the exported names one top-level declaration
// introduces: functions, types, constants and variables by name, and
// methods, struct fields and interface methods as "Type.Member".
func collectDeclNames(decl ast.Decl, names map[string]bool) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return
		}
		if d.Recv == nil {
			names[d.Name.Name] = true
			return
		}
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			names[id.Name+"."+d.Name.Name] = true
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				names[s.Name.Name] = s.Name.IsExported()
				var members []*ast.Field
				switch ty := s.Type.(type) {
				case *ast.StructType:
					members = ty.Fields.List
				case *ast.InterfaceType:
					members = ty.Methods.List
				}
				for _, f := range members {
					for _, n := range f.Names {
						if n.IsExported() {
							names[s.Name.Name+"."+n.Name] = true
						}
					}
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() {
						names[n.Name] = true
					}
				}
			}
		}
	}
}
