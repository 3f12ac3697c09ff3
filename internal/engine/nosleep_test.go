package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoSleepPolling keeps the engine's waits event-driven: no non-test
// file of engine, task or ringbuf may refer to time.Sleep or
// runtime.Gosched outside the functions allowed below, each for a stated
// reason and at most the stated number of times. A wait belongs on the
// signal of the event that ends it (task.Signal), not in a poll loop.
// (The model pad, which stretches a task to its modelled duration, sleeps
// in model.Pad, outside these packages.)
func TestNoSleepPolling(t *testing.T) {
	allowed := map[string]int{
		// CAS retry while a duplicate delivery publishes its slot's ID:
		// a few instructions away, too short to park on.
		"engine.deposit runtime.Gosched": 1,
		// CAS retry while another worker holds the drain lock and may
		// have just missed this slot: same.
		"engine.tryDrain runtime.Gosched": 1,
	}
	found := map[string]int{}
	for _, dir := range []string{".", "../task", "../ringbuf"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				owner := f.Name.Name + ".<package scope>"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					owner = f.Name.Name + "." + fd.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					pkg, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					ref := pkg.Name + "." + sel.Sel.Name
					if ref != "time.Sleep" && ref != "runtime.Gosched" {
						return true
					}
					key := owner + " " + ref
					found[key]++
					if found[key] > allowed[key] {
						t.Errorf("%s: %s in %s: park on the event that ends the wait instead",
							fset.Position(sel.Pos()), ref, owner)
					}
					return true
				})
			}
		}
	}
	for key, n := range allowed {
		if found[key] < n {
			t.Errorf("allowance %q (%d) is used %d times: shrink it", key, n, found[key])
		}
	}
}
