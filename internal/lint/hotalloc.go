package lint

import (
	"go/ast"
	"go/types"
)

// A HotFunc designates one function or method as a hot path: called
// per-probe or per-candidate millions of times per simulated day.
type HotFunc struct {
	// PkgPath is the function's package import path.
	PkgPath string
	// Func is the function or method name (receiver type omitted).
	Func string
}

// NewHotAlloc returns the hotalloc analyzer: PRs 4 through 7 each
// burned a profiling session hunting allocations that had crept into
// the scan/merge inner loops (per-probe Addr.String keys, fmt.Sprintf
// in responders, per-iteration scratch slices). Inside the designated
// hot functions this analyzer flags the recurring offenders at review
// time instead: any fmt print-family call or ip6.Addr.String call
// anywhere in the function, and per-iteration allocations — make, new,
// slice/map composite literals, string concatenation, append onto a
// slice declared inside the loop, an ip6 set constructor — inside its
// loops. Hoist the allocation, use the pooled scratch the function
// already owns, or document the exception with //lint:allow.
func NewHotAlloc(hot []HotFunc) *Analyzer {
	table := map[string]map[string]bool{}
	for _, h := range hot {
		m := table[h.PkgPath]
		if m == nil {
			m = map[string]bool{}
			table[h.PkgPath] = m
		}
		m[h.Func] = true
	}
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "flags formatting calls and per-iteration allocations inside designated hot-path functions",
	}
	a.Run = func(p *Pass) { runHotAlloc(p, table) }
	return a
}

func runHotAlloc(p *Pass, table map[string]map[string]bool) {
	funcs := table[p.Pkg.Path()]
	if len(funcs) == 0 {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcs[fd.Name.Name] {
				continue
			}
			checkHotFunc(p, fd)
		}
	}
}

func checkHotFunc(p *Pass, fd *ast.FuncDecl) {
	// loop is the body of the outermost loop around n, nil outside loops:
	// what is declared inside it is fresh on every iteration.
	var walk func(n ast.Node, loop *ast.BlockStmt)
	walk = func(n ast.Node, loop *ast.BlockStmt) {
		inLoop := loop != nil
		// body walks a loop body, which opens the outermost loop when n
		// is not inside one yet.
		body := func(b *ast.BlockStmt) {
			if inLoop {
				walk(b, loop)
			} else {
				walk(b, b)
			}
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				if n.Init != nil {
					walk(n.Init, loop)
				}
				if n.Cond != nil {
					walk(n.Cond, loop)
				}
				if n.Post != nil {
					walk(n.Post, loop)
				}
				body(n.Body)
				return false
			case *ast.RangeStmt:
				body(n.Body)
				return false
			case *ast.CallExpr:
				checkHotCall(p, fd, n, loop)
			case *ast.CompositeLit:
				if inLoop && allocatingLit(p.TypeOf(n)) {
					p.Reportf(n.Pos(), "composite literal allocates per iteration in hot path %s: hoist it or reuse scratch", fd.Name.Name)
				}
			case *ast.BinaryExpr:
				if inLoop && n.Op.String() == "+" && isString(p.TypeOf(n)) {
					p.Reportf(n.Pos(), "string concatenation allocates per iteration in hot path %s", fd.Name.Name)
				}
			}
			return true
		})
	}
	walk(fd.Body, nil)
}

// setConstructors are the ip6 constructors that allocate a map-backed
// set: one per iteration of a hot loop is a per-target hash table.
var setConstructors = map[string]bool{"NewSet": true, "NewShardSetWorkers": true}

func checkHotCall(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr, loop *ast.BlockStmt) {
	inLoop := loop != nil
	// fmt print family and Addr.String: forbidden anywhere in a hot
	// function — both allocate and format per call.
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if obj, ok := p.ObjectOf(fun.Sel).(*types.Func); ok && obj.Pkg() != nil {
			sig, _ := obj.Type().(*types.Signature)
			if sig != nil && sig.Recv() == nil && obj.Pkg().Path() == "fmt" && printFamily[obj.Name()] {
				p.Reportf(call.Pos(), "fmt.%s in hot path %s: formatting allocates per call", obj.Name(), fd.Name.Name)
				return
			}
			if sig != nil && sig.Recv() != nil && obj.Name() == "String" {
				if q := qualifiedName(derefType(sig.Recv().Type())); q == "expanse/internal/ip6.Addr" {
					p.Reportf(call.Pos(), "Addr.String in hot path %s: allocates a fresh string per probe; key on the Addr value or its Hash64", fd.Name.Name)
					return
				}
			}
			if inLoop && sig != nil && sig.Recv() == nil && obj.Pkg().Path() == "expanse/internal/ip6" && setConstructors[obj.Name()] {
				p.Reportf(call.Pos(), "ip6.%s allocates a set per iteration in hot path %s: accumulate into columns or a set the caller owns", obj.Name(), fd.Name.Name)
			}
		}
	case *ast.Ident:
		if obj, ok := p.ObjectOf(fun).(*types.Builtin); ok && inLoop {
			switch obj.Name() {
			case "make":
				p.Reportf(call.Pos(), "make allocates per iteration in hot path %s: hoist it or reuse scratch", fd.Name.Name)
			case "new":
				p.Reportf(call.Pos(), "new allocates per iteration in hot path %s: hoist it or reuse scratch", fd.Name.Name)
			case "append":
				// A slice declared inside the loop starts empty every
				// iteration, so growing it allocates every iteration.
				if id, ok := call.Args[0].(*ast.Ident); ok {
					if v := p.ObjectOf(id); v != nil && loop.Pos() <= v.Pos() && v.Pos() < loop.End() {
						p.Reportf(call.Pos(), "append grows %s, declared inside the loop, per iteration in hot path %s: hoist it and reuse it with [:0], or write into the caller's columns", id.Name, fd.Name.Name)
					}
				}
			}
		}
	}
}

// allocatingLit reports whether a composite literal of type t heap-
// allocates per evaluation: slices and maps do; plain structs and
// arrays live on the stack unless they escape.
func allocatingLit(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
