// Package snapcomplete enforces the DESIGN.md §8 snapshot
// completeness contract: for every type implementing the
// Snapshot(*snap.Encoder) / RestoreSnapshot(*snap.Decoder) pair, each
// mutable state field must be referenced by both the encode and the
// decode path. Adding a field to a predictor component and forgetting
// to serialize it does not fail any unit test — it fails resume
// bit-identity on some budget sweep weeks later. This analyzer turns
// that omission into a vet error at the field declaration.
//
// A field counts as mutable state when any non-constructor function in
// the package assigns it (directly, through a compound assignment or
// ++/--, through an element write p.f[i] = v, or by taking its
// address). Fields assigned only in constructors are configuration
// (geometry, masks, wiring) and exempt: the §8 contract restores into
// an instance of the identical configuration, so construction-time
// state travels with the constructor, not the snapshot. Intentionally
// unserialized mutable fields (dead at the branch-boundary snapshot
// points, pure caches) must say so with //lint:allow snapcomplete
// <reason> on their declaration.
//
// The instance restored into may have simulated before: the engine
// resets pooled predictors by restoring the snapshot their
// configuration had when built (DESIGN.md §5). A mutable field this
// check let through would carry one work item's state into the next.
// This analyzer and TestSnapshotPristineResetEqualsFresh are what keep
// a reset equal to a fresh build.
package snapcomplete

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the snapshot-completeness check.
var Analyzer = &analysis.Analyzer{
	Name: "snapcomplete",
	Doc:  "every mutable field of a Snapshot/RestoreSnapshot type must be referenced by both the encode and decode paths",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.ForTest {
		return nil
	}
	info := pass.TypesInfo()

	// Index every function and method declared in this package, and
	// find the Snapshot/RestoreSnapshot pairs.
	decls := map[*types.Func]*ast.FuncDecl{}
	type pair struct{ snap, restore *types.Func }
	pairs := map[*types.Named]*pair{}
	for _, f := range pass.Pkg.Files {
		if pass.Pkg.TestFile(f) {
			// Test files mutate fields to fabricate states; that is
			// not production mutability, so keep them out of the index.
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			decls[obj] = fd
			if fd.Recv == nil || fd.Type.Params.NumFields() != 1 {
				continue
			}
			named := receiverNamed(obj)
			if named == nil {
				continue
			}
			switch fd.Name.Name {
			case "Snapshot", "RestoreSnapshot":
				p := pairs[named]
				if p == nil {
					p = &pair{}
					pairs[named] = p
				}
				if fd.Name.Name == "Snapshot" {
					p.snap = obj
				} else {
					p.restore = obj
				}
			}
		}
	}

	for named, p := range pairs {
		if p.snap == nil || p.restore == nil {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		constructors := constructorSet(pass, info, named)
		mutable := mutableFields(pass, info, decls, named, constructors)
		if len(mutable) == 0 {
			continue
		}
		enc := fieldsReferenced(info, decls, p.snap, named)
		dec := fieldsReferenced(info, decls, p.restore, named)
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			if !mutable[fld] {
				continue
			}
			missing := ""
			switch {
			case !enc[fld] && !dec[fld]:
				missing = "Snapshot or RestoreSnapshot"
			case !enc[fld]:
				missing = "Snapshot"
			case !dec[fld]:
				missing = "RestoreSnapshot"
			default:
				continue
			}
			pass.Reportf(fld.Pos(), "mutable field %s.%s is not referenced by %s: snapshots must capture all mutable state (DESIGN.md §8), or declare it exempt with //lint:allow snapcomplete <reason>",
				named.Obj().Name(), fld.Name(), missing)
		}
	}
	return nil
}

// receiverNamed returns the named type of fn's receiver, unwrapping a
// pointer.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// constructorSet returns the package-level functions whose results
// include the named type (or a pointer to it): assignments inside
// them are construction, not mutation.
func constructorSet(pass *analysis.Pass, info *types.Info, named *types.Named) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	for _, f := range pass.Pkg.Files {
		if pass.Pkg.TestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			res := obj.Type().(*types.Signature).Results()
			for i := 0; i < res.Len(); i++ {
				t := res.At(i).Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if n, ok := t.(*types.Named); ok && n.Obj() == named.Obj() {
					out[obj] = true
				}
			}
		}
	}
	return out
}

// mutableFields returns the fields of named that some non-constructor
// function in the package mutates.
func mutableFields(pass *analysis.Pass, info *types.Info, decls map[*types.Func]*ast.FuncDecl, named *types.Named, constructors map[*types.Func]bool) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	mark := func(e ast.Expr) {
		if fld := fieldOf(info, e, named); fld != nil {
			out[fld] = true
		}
	}
	for fn, fd := range decls {
		if constructors[fn] || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lvalueBase(lhs))
				}
			case *ast.IncDecStmt:
				mark(lvalueBase(n.X))
			case *ast.UnaryExpr:
				if n.Op.String() == "&" {
					mark(lvalueBase(n.X))
				}
			}
			return true
		})
	}
	return out
}

// lvalueBase strips index expressions so p.f[i][j] mutates field f.
func lvalueBase(e ast.Expr) ast.Expr {
	for {
		if ix, ok := e.(*ast.IndexExpr); ok {
			e = ix.X
			continue
		}
		return e
	}
}

// fieldOf returns the field object when e is a selector x.f whose base
// is the named type (possibly through a pointer).
func fieldOf(info *types.Info, e ast.Expr, named *types.Named) *types.Var {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	obj, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return nil
	}
	t := info.Types[sel.X].Type
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj() == named.Obj() {
		return obj
	}
	return nil
}

// fieldsReferenced walks the same-package call closure from root and
// collects every field of named that any reached function references.
func fieldsReferenced(info *types.Info, decls map[*types.Func]*ast.FuncDecl, root *types.Func, named *types.Named) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	visited := map[*types.Func]bool{}
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if visited[fn] {
			return
		}
		visited[fn] = true
		fd := decls[fn]
		if fd == nil || fd.Body == nil {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if fld := fieldOf(info, n, named); fld != nil {
					out[fld] = true
				}
				if callee, ok := info.Uses[n.Sel].(*types.Func); ok && decls[callee] != nil {
					visit(callee)
				}
			case *ast.Ident:
				if callee, ok := info.Uses[n].(*types.Func); ok && decls[callee] != nil {
					visit(callee)
				}
			}
			return true
		})
	}
	visit(root)
	return out
}
