package golint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// LintAtomicWrites walks every non-test Go file under root and reports each
// staged write that os.Rename later publishes from a plain os.WriteFile.
// Rename is atomic in the namespace but promises nothing about data blocks:
// a crash between the unsynced write and the journal flush can leave a
// fully-named file with zeroed content — exactly the corruption the store's
// content addressing exists to rule out. Staged writes must go through a
// helper that fsyncs before close (write, Sync, Close, then rename).
func LintAtomicWrites(root string) ([]Diagnostic, error) {
	return walkGoFiles(root, nil, lintFileAtomicWrites)
}

// lintFileAtomicWrites reports WriteFile→Rename pairs in one parsed file.
// The pairing is lexical and per-function: an os.WriteFile whose path
// expression reappears as the source of an os.Rename in the same function
// body is a staged write, and os.WriteFile never syncs.
func lintFileAtomicWrites(fset *token.FileSet, file *ast.File) []Diagnostic {
	var diags []Diagnostic
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		type staged struct {
			pos  token.Position
			path string
		}
		var writes []staged
		renamed := make(map[string]bool)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			switch osCallName(call) {
			case "WriteFile":
				writes = append(writes, staged{
					pos:  fset.Position(call.Pos()),
					path: types.ExprString(call.Args[0]),
				})
			case "Rename":
				renamed[types.ExprString(call.Args[0])] = true
			}
			return true
		})
		for _, w := range writes {
			if renamed[w.path] {
				diags = append(diags, Diagnostic{
					Pos: fmt.Sprintf("%s:%d", w.pos.Filename, w.pos.Line),
					Msg: fmt.Sprintf("os.WriteFile(%s, …) is published by os.Rename without an fsync; stage it through a synced write helper (write, Sync, Close, then rename)", w.path),
				})
			}
		}
	}
	return diags
}

// osCallName returns the method name of an os.<Name>(...) call, or "".
func osCallName(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "os" {
		return ""
	}
	return sel.Sel.Name
}

// LintLockedCalls walks every non-test Go file under root and reports each
// call of a *Locked function made where the lint cannot see the lock being
// held: the caller is neither itself named *Locked nor contains a lexically
// preceding .Lock()/.RLock() call. The *Locked suffix is this repo's
// convention for "caller holds the mutex"; a bare call from an unlocked
// context races the index against concurrent writers.
func LintLockedCalls(root string) ([]Diagnostic, error) {
	return walkGoFiles(root, nil, lintFileLockedCalls)
}

// lintFileLockedCalls reports unprotected *Locked calls in one parsed file.
// The check is lexical — any .Lock()/.RLock() earlier in the same enclosing
// function discharges every later *Locked call, including calls inside
// nested function literals — so it under-approximates races but never
// demands annotations sound code does not already have.
func lintFileLockedCalls(fset *token.FileSet, file *ast.File) []Diagnostic {
	var diags []Diagnostic
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || strings.HasSuffix(fn.Name.Name, "Locked") {
			continue
		}
		var lockPos token.Pos // earliest .Lock()/.RLock() call, or NoPos
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if name := sel.Sel.Name; name == "Lock" || name == "RLock" {
					if lockPos == token.NoPos || call.Pos() < lockPos {
						lockPos = call.Pos()
					}
				}
			}
			return true
		})
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			if !strings.HasSuffix(name, "Locked") {
				return true
			}
			if lockPos == token.NoPos || call.Pos() < lockPos {
				pos := fset.Position(call.Pos())
				diags = append(diags, Diagnostic{
					Pos: fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
					Msg: fmt.Sprintf("%s is called without a preceding .Lock(); callers of *Locked functions must hold the mutex or be *Locked themselves", name),
				})
			}
			return true
		})
	}
	return diags
}

// calleeName extracts the bare function or method name of a call.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// walkGoFiles parses every non-test Go file under root (skipping .git,
// .github, testdata, and the exempt directories, given relative to root)
// and concatenates lint's diagnostics.
func walkGoFiles(root string, exempt []string, lint func(*token.FileSet, *ast.File) []Diagnostic) ([]Diagnostic, error) {
	var diags []Diagnostic
	fset := token.NewFileSet()
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			name := info.Name()
			if name == ".git" || name == ".github" || name == "testdata" {
				return filepath.SkipDir
			}
			if rel, rerr := filepath.Rel(root, path); rerr == nil && slices.Contains(exempt, rel) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, perr := parser.ParseFile(fset, path, nil, 0)
		if perr != nil {
			return fmt.Errorf("golint: %v", perr)
		}
		diags = append(diags, lint(fset, file)...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return diags, nil
}
