// Package srclint implements the source-level lint rules behind the
// optiflow-vet command. It enforces repo invariants that go vet cannot
// express, using only the standard library (go/ast, go/parser,
// go/token — no go/packages, no type checking):
//
//   - goroutine:   `go` statements are confined to internal/exec,
//     internal/cluster and internal/checkpoint — concurrency lives in
//     the engine, the cluster model and the background checkpoint
//     pipeline, nowhere else, so the replay paths stay
//     single-threaded and deterministic;
//   - panicprefix: every panic with a literal message is prefixed with
//     its package name ("state: ...", "dataflow: ..."), so a stack-less
//     panic log still names its origin;
//   - determinism: the deterministic replay packages
//     (internal/recovery, internal/iterate, internal/checkpoint) read
//     time only through internal/clock — no time.Now/time.Since — and
//     never import math/rand;
//   - globalvar:   internal/algo packages declare no package-level var
//     that the package itself mutates; algorithm state belongs in job
//     structs, where recovery can snapshot and restore it.
//
// Retention of engine-owned batch views is checked by the typed
// poolescape rule of internal/deepvet, not here.
//
// Analysis is purely syntactic. Identifier/shadowing resolution uses
// the parser's per-file object resolution: a same-named local variable
// declared in the same file is not confused with the package-level
// var; cross-file references are matched by name, which is precise
// enough for the small, flat packages under internal/.
package srclint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	// Pos locates the violation.
	Pos token.Position
	// Rule identifies the check ("goroutine", "panicprefix", ...).
	Rule string
	// Msg describes the violation.
	Msg string
}

// String renders the finding in the file:line:col: style of go vet.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Rule, f.Msg)
}

// goroutinePackages may contain `go` statements.
var goroutinePackages = map[string]bool{
	"internal/exec":       true,
	"internal/cluster":    true,
	"internal/checkpoint": true,
}

// deterministicPrefixes are the replay paths banned from wall-clock
// reads and math/rand.
var deterministicPrefixes = []string{
	"internal/recovery",
	"internal/iterate",
	"internal/checkpoint",
	"internal/supervise",
}

// Check walks every package directory under the given roots (repo-root
// relative; "./..." style patterns are accepted) and returns all
// findings, deterministically ordered. Directories named testdata,
// hidden directories, and _test.go files are skipped.
func Check(root string, patterns []string) ([]Finding, error) {
	dirs, err := packageDirs(root, patterns)
	if err != nil {
		return nil, err
	}
	var all []Finding
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		fs, err := CheckPackageDir(dir, filepath.ToSlash(rel))
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return all, nil
}

// PackageDirs expands patterns ("./...", "internal/...", plain dirs)
// into the sorted set of repo-root-relative, slash-separated package
// directories containing non-test .go files ("" is the root package).
// Shared with internal/deepvet so both lint layers agree on what a
// pattern selects.
func PackageDirs(root string, patterns []string) ([]string, error) {
	dirs, err := packageDirs(root, patterns)
	if err != nil {
		return nil, err
	}
	rels := make([]string, 0, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		rels = append(rels, rel)
	}
	return rels, nil
}

// ValidateAllowlists cross-checks the hand-maintained package
// allowlists above against the repo tree: an entry naming a directory
// that no longer holds Go sources is stale and silently weakens (or
// misdirects) the rules that consume it. The determinism allowlist has
// drifted once already — internal/supervise was added late — so the
// lists are now linted like everything else.
func ValidateAllowlists(root string) []Finding {
	srcPos := token.Position{Filename: filepath.Join(root, "internal", "srclint", "srclint.go")}
	hasGoSources := func(rel string) bool {
		entries, err := os.ReadDir(filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			return false
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				return true
			}
		}
		return false
	}
	var fs []Finding
	stale := func(list, entry string) {
		fs = append(fs, Finding{
			Pos:  srcPos,
			Rule: "allowlist",
			Msg:  fmt.Sprintf("%s entry %q names a package that no longer exists; remove the stale entry", list, entry),
		})
	}
	pkgs := make([]string, 0, len(goroutinePackages))
	for p := range goroutinePackages {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	for _, p := range pkgs {
		if !hasGoSources(p) {
			stale("goroutinePackages", p)
		}
	}
	for _, p := range deterministicPrefixes {
		if !hasGoSources(p) {
			stale("deterministicPrefixes", p)
		}
	}
	return fs
}

// packageDirs expands patterns ("./...", "internal/...", plain dirs)
// into the set of directories containing non-test .go files.
func packageDirs(root string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	addDir := func(dir string) {
		if seen[dir] {
			return
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				seen[dir] = true
				dirs = append(dirs, dir)
				return
			}
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		base := filepath.Join(root, filepath.FromSlash(pat))
		if !recursive {
			addDir(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return fs.SkipDir
			}
			addDir(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// CheckPackageDir lints the non-test .go files of one package
// directory. rel is the directory's slash-separated path relative to
// the repo root; it selects which rules apply. Exposed separately so
// fixture tests can lint a testdata directory under any pretend rel.
func CheckPackageDir(dir, rel string) ([]Finding, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	pkgName := ""
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			return nil, fmt.Errorf("srclint: %v", err)
		}
		files = append(files, f)
		pkgName = f.Name.Name
	}
	if len(files) == 0 {
		return nil, nil
	}

	var findings []Finding
	add := func(pos token.Pos, rule, format string, args ...any) {
		findings = append(findings, Finding{
			Pos: fset.Position(pos), Rule: rule, Msg: fmt.Sprintf(format, args...),
		})
	}

	if strings.HasPrefix(rel, "internal/") && !goroutinePackages[rel] && !underAny(rel, goroutinePackages) {
		checkGoroutines(files, add)
	}
	if pkgName != "main" {
		checkPanicPrefix(files, pkgName, add)
	}
	for _, p := range deterministicPrefixes {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			checkDeterminism(files, add)
			break
		}
	}
	if rel == "internal/algo" || strings.HasPrefix(rel, "internal/algo/") {
		checkGlobalVars(files, add)
	}
	return findings, nil
}

func underAny(rel string, set map[string]bool) bool {
	for p := range set {
		if strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// checkGoroutines flags `go` statements: concurrency belongs to the
// execution engine and the cluster model only.
func checkGoroutines(files []*ast.File, add func(token.Pos, string, string, ...any)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				add(g.Pos(), "goroutine",
					"go statement outside internal/exec, internal/cluster and internal/checkpoint; keep concurrency in the engine so replay paths stay deterministic")
			}
			return true
		})
	}
}

// literalMessage extracts the literal string of a panic argument:
// a plain string literal, or the literal first argument of
// fmt.Sprintf/fmt.Errorf. Returns ok=false for non-literal arguments
// (panic(err), panic(r)), which the rule cannot and does not check.
func literalMessage(arg ast.Expr) (string, bool) {
	switch a := arg.(type) {
	case *ast.BasicLit:
		if a.Kind == token.STRING {
			if s, err := strconv.Unquote(a.Value); err == nil {
				return s, true
			}
		}
	case *ast.CallExpr:
		sel, ok := a.Fun.(*ast.SelectorExpr)
		if !ok || len(a.Args) == 0 {
			return "", false
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "fmt" || (sel.Sel.Name != "Sprintf" && sel.Sel.Name != "Errorf") {
			return "", false
		}
		return literalMessage(a.Args[0])
	}
	return "", false
}

// checkPanicPrefix flags panics whose literal message is not prefixed
// with the package name.
func checkPanicPrefix(files []*ast.File, pkgName string, add func(token.Pos, string, string, ...any)) {
	want := pkgName + ": "
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "panic" || fn.Obj != nil || len(call.Args) != 1 {
				return true
			}
			if msg, ok := literalMessage(call.Args[0]); ok && !strings.HasPrefix(msg, want) {
				add(call.Pos(), "panicprefix",
					"panic message %q must start with %q so the origin package is identifiable", msg, want)
			}
			return true
		})
	}
}

// checkDeterminism flags wall-clock reads and math/rand in replay
// packages; they must go through internal/clock (or take randomness as
// explicit input).
func checkDeterminism(files []*ast.File, add func(token.Pos, string, string, ...any)) {
	for _, f := range files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "math/rand" || path == "math/rand/v2" {
				add(imp.Pos(), "determinism",
					"import of %s in a deterministic replay package; take randomness as explicit input", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Name != "time" || pkg.Obj != nil {
				return true
			}
			if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
				add(sel.Pos(), "determinism",
					"time.%s in a deterministic replay package; use internal/clock so replays observe a controllable time source", sel.Sel.Name)
			}
			return true
		})
	}
}

// checkGlobalVars flags package-level vars in internal/algo packages
// that the package itself mutates (assignment, ++/--, or address
// taken). Read-only package-level vars (lookup tables, sentinel
// values) are fine.
func checkGlobalVars(files []*ast.File, add func(token.Pos, string, string, ...any)) {
	// Collect package-level var names and their declaring specs.
	pkgVars := make(map[string]token.Pos)
	pkgVarSpecs := make(map[*ast.Object]bool)
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					pkgVars[name.Name] = name.Pos()
					if name.Obj != nil {
						pkgVarSpecs[name.Obj] = true
					}
				}
			}
		}
	}
	if len(pkgVars) == 0 {
		return
	}

	// refersToPkgVar reports whether the expression's root identifier
	// names a package-level var (directly or through index/selector/
	// deref wrappers) and is not shadowed by a same-file local.
	var rootIdent func(e ast.Expr) *ast.Ident
	rootIdent = func(e ast.Expr) *ast.Ident {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			return rootIdent(x.X)
		case *ast.SelectorExpr:
			return rootIdent(x.X)
		case *ast.StarExpr:
			return rootIdent(x.X)
		case *ast.ParenExpr:
			return rootIdent(x.X)
		}
		return nil
	}
	refersToPkgVar := func(e ast.Expr) (string, bool) {
		id := rootIdent(e)
		if id == nil {
			return "", false
		}
		if _, ok := pkgVars[id.Name]; !ok {
			return "", false
		}
		// Same-file resolution: a non-nil Obj must be the package-level
		// spec, otherwise the ident is a shadowing local.
		if id.Obj != nil && !pkgVarSpecs[id.Obj] {
			return "", false
		}
		return id.Name, true
	}

	report := func(pos token.Pos, name, how string) {
		add(pos, "globalvar",
			"package-level var %q is %s; mutable algorithm state belongs in the job struct so recovery can snapshot and restore it", name, how)
	}

	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if st.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range st.Lhs {
					if name, ok := refersToPkgVar(lhs); ok {
						report(st.Pos(), name, "assigned to")
					}
				}
			case *ast.IncDecStmt:
				if name, ok := refersToPkgVar(st.X); ok {
					report(st.Pos(), name, "mutated with ++/--")
				}
			case *ast.UnaryExpr:
				if st.Op == token.AND {
					if name, ok := refersToPkgVar(st.X); ok {
						report(st.Pos(), name, "having its address taken")
					}
				}
			}
			return true
		})
	}
}
