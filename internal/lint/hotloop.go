package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// HotLoopAnalyzer enforces the PR-4 hoisted-CSR convention in the hot
// packages: a loop body must not call g.Succ/g.Pred — each call re-derives
// the CSR row bounds per iteration, which is exactly the per-step overhead
// the hoisted SuccessorCSR/PredecessorCSR rows were introduced to eliminate.  Passing
// g.Succ as a method value is flagged too, because it smuggles the same
// per-call cost into some other function's loop where no analyzer can see
// the receiver anymore.
var HotLoopAnalyzer = &analysis.Analyzer{
	Name: "hotloop",
	Doc: "flags cdag.Graph Succ/Pred calls inside loops of hot packages; " +
		"hoist SuccessorCSR/PredecessorCSR rows before the loop instead",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runHotLoop,
}

// adjacencyMethods are the per-vertex adjacency accessors the convention
// covers, mapped to the hoisted accessor the diagnostic recommends.
var adjacencyMethods = map[string]string{
	"Succ": "SuccessorCSR",
	"Pred": "PredecessorCSR",
}

func runHotLoop(pass *analysis.Pass) (any, error) {
	if !inPackages(pass, hotPackages) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// callFuns remembers the SelectorExpr of every adjacency call so the
	// method-value sweep below can tell g.Succ(v) (covered by the loop rule)
	// from a bare g.Succ escaping as a func value (always flagged).
	callFuns := map[*ast.SelectorExpr]bool{}

	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		call := n.(*ast.CallExpr)
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isGraphAdjacency(pass, sel) {
			return true
		}
		callFuns[sel] = true
		if loop := enclosingPerIterationLoop(stack); loop != nil {
			reportf(pass, call,
				"%s called inside a loop in hot package %s: hoist the %s row outside the loop (PR-4 convention)",
				sel.Sel.Name, pkgBase(pass.Pkg.Path()), adjacencyMethods[sel.Sel.Name])
		}
		return true
	})

	ins.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		sel := n.(*ast.SelectorExpr)
		if callFuns[sel] || !isGraphAdjacency(pass, sel) {
			return
		}
		reportf(pass, sel,
			"%s used as a method value in hot package %s: it hides a per-call row lookup inside the callee's loop; pass hoisted %s slices instead",
			sel.Sel.Name, pkgBase(pass.Pkg.Path()), adjacencyMethods[sel.Sel.Name])
	})
	return nil, nil
}

// isGraphAdjacency reports whether sel selects one of the adjacency methods
// of the CDAG graph type (a named type Graph declared in a package whose
// basename is cdag).
func isGraphAdjacency(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if _, covered := adjacencyMethods[sel.Sel.Name]; !covered {
		return false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok {
		return false
	}
	fn, ok := obj.(*types.Func)
	if ok && fn.Pkg() != nil && pkgBase(fn.Pkg().Path()) == "cdag" {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := recv.Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		named, isNamed := t.(*types.Named)
		return isNamed && named.Obj().Name() == "Graph"
	}
	return false
}

// enclosingPerIterationLoop returns the innermost for/range statement whose
// per-iteration region contains the node at the top of the stack, or nil.
// The once-evaluated parts of a loop (a for statement's Init, a range
// statement's operand) do not count — hoisting a call there is precisely
// what the convention asks for.
func enclosingPerIterationLoop(stack []ast.Node) ast.Node {
	node := stack[len(stack)-1]
	for i := len(stack) - 2; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.ForStmt:
			if s.Init == nil || !within(node, s.Init) {
				return s
			}
		case *ast.RangeStmt:
			if !within(node, s.X) {
				return s
			}
		}
		node = stack[i]
	}
	return nil
}

// within reports whether node lies inside container's source range.
func within(node, container ast.Node) bool {
	return node.Pos() >= container.Pos() && node.End() <= container.End()
}
