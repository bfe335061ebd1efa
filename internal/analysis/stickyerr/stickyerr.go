// Package stickyerr enforces the internal/snap sticky-error decoder
// idiom (DESIGN.md §8) in every package that decodes snapshots:
//
//   - Decode structure must be configuration-driven, not
//     payload-driven: an if/switch/for whose condition depends on a
//     decoded value must not itself perform further decoder reads.
//     Bail-out validation (d.Fail, return, break) is fine; choosing
//     *what to read next* from payload bytes means a corrupt or
//     mismatched snapshot silently desynchronizes the stream instead
//     of failing loudly. Variable-length state goes through
//     Decoder.VarLen, whose result is sanctioned as a loop bound.
//   - The exact-length slice contract: make() must never be sized by
//     a raw decoded value — a corrupt length would force an arbitrary
//     allocation. Sizes come from the receiver's construction-time
//     geometry, or from VarLen, which bounds them by the remaining
//     input.
//
// The analyzer checks RestoreSnapshot methods and any function taking
// a *snap.Decoder, in every package except the codec itself.
package stickyerr

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// snapPkgSuffix identifies the codec package by import path.
const snapPkg = "repro/internal/snap"

// reads are the Decoder methods that consume payload bytes and return
// a value; their results are "tainted" for control-flow purposes.
var reads = map[string]bool{
	"U8": true, "I8": true, "Bool": true, "U16": true, "U32": true,
	"U64": true, "I64": true, "Int": true, "String": true, "Span": true,
}

// consuming are the Decoder methods that advance the stream at all —
// the ones that must not appear under payload-driven branches.
var consuming = map[string]bool{
	"U8": true, "I8": true, "Bool": true, "U16": true, "U32": true,
	"U64": true, "I64": true, "Int": true, "Expect": true, "VarLen": true,
	"String": true, "Span": true,
	"Uint8s": true, "Int8s": true, "Uint16s": true, "Uint32s": true, "Uint64s": true,
}

// Analyzer is the sticky-error decoder idiom check.
var Analyzer = &analysis.Analyzer{
	Name: "stickyerr",
	Doc:  "snapshot decoding must be straight-line and configuration-driven: no reads under payload-dependent branches, no make() sized by raw decoded values",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.ForTest || pass.Pkg.Path == snapPkg {
		return nil
	}
	info := pass.TypesInfo()
	for _, f := range pass.Pkg.Files {
		if pass.Pkg.TestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "RestoreSnapshot" || hasDecoderParam(info, fd) {
				checkDecode(pass, info, fd)
			}
		}
	}
	return nil
}

// isDecoderType reports whether t is snap.Decoder or *snap.Decoder.
func isDecoderType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Decoder" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == snapPkg
}

func hasDecoderParam(info *types.Info, fd *ast.FuncDecl) bool {
	obj, _ := info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return false
	}
	params := obj.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if isDecoderType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// decoderCall returns the method name when call is d.<Method>(...) on
// a snap.Decoder, else "".
func decoderCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	tv, ok := info.Types[sel.X]
	if !ok || !isDecoderType(tv.Type) {
		return ""
	}
	return sel.Sel.Name
}

func checkDecode(pass *analysis.Pass, info *types.Info, fd *ast.FuncDecl) {
	tainted := taintedVars(info, fd)

	exprTainted := func(e ast.Expr) bool {
		bad := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil && tainted[obj] {
					bad = true
				}
			case *ast.CallExpr:
				if reads[decoderCall(info, n)] {
					bad = true
				}
			}
			return !bad
		})
		return bad
	}

	containsConsumingRead := func(n ast.Node) (ast.Node, bool) {
		var at ast.Node
		ast.Inspect(n, func(m ast.Node) bool {
			if at != nil {
				return false
			}
			if call, ok := m.(*ast.CallExpr); ok && consuming[decoderCall(info, call)] {
				at = call
			}
			return at == nil
		})
		return at, at != nil
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			condTainted := exprTainted(n.Cond)
			if init, ok := n.Init.(*ast.AssignStmt); ok && !condTainted {
				// if v := d.U32(); cond-on-v { ... }
				for _, rhs := range init.Rhs {
					if exprTainted(rhs) {
						for _, lhs := range init.Lhs {
							if id, ok := lhs.(*ast.Ident); ok && usesIdent(info, n.Cond, id) {
								condTainted = true
							}
						}
					}
				}
			}
			if condTainted {
				if at, ok := containsConsumingRead(n.Body); ok {
					pass.Reportf(at.Pos(), "decoder read under a branch on a decoded value: decode structure must be configuration-driven, not payload-driven (DESIGN.md §8)")
				}
				if n.Else != nil {
					if at, ok := containsConsumingRead(n.Else); ok {
						pass.Reportf(at.Pos(), "decoder read under a branch on a decoded value: decode structure must be configuration-driven, not payload-driven (DESIGN.md §8)")
					}
				}
			}
		case *ast.ForStmt:
			if n.Cond != nil && exprTainted(n.Cond) {
				if at, ok := containsConsumingRead(n.Body); ok {
					pass.Reportf(at.Pos(), "decoder reads in a loop bounded by a raw decoded value: bound variable-length state with Decoder.VarLen (DESIGN.md §8)")
				}
			}
		case *ast.SwitchStmt:
			if n.Tag != nil && exprTainted(n.Tag) {
				if at, ok := containsConsumingRead(n.Body); ok {
					pass.Reportf(at.Pos(), "decoder read under a switch on a decoded value: decode structure must be configuration-driven, not payload-driven (DESIGN.md §8)")
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && isBuiltinObj(info.Uses[id]) {
				for _, arg := range n.Args[1:] {
					if exprTainted(arg) {
						pass.Reportf(n.Pos(), "make() sized by a raw decoded value: a corrupt snapshot could force an arbitrary allocation; size from construction-time geometry or Decoder.VarLen")
						break
					}
				}
			}
		}
		return true
	})
}

func isBuiltinObj(obj types.Object) bool {
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

func usesIdent(info *types.Info, e ast.Expr, id *ast.Ident) bool {
	target := info.Defs[id]
	if target == nil {
		target = info.Uses[id]
	}
	if target == nil {
		return false
	}
	used := false
	ast.Inspect(e, func(n ast.Node) bool {
		if m, ok := n.(*ast.Ident); ok && (info.Uses[m] == target || info.Defs[m] == target) {
			used = true
		}
		return !used
	})
	return used
}

// taintedVars computes, to a fixpoint, the local variables whose
// values derive from raw decoder reads. Decoder.VarLen results are
// deliberately untainted: VarLen is the sanctioned bounded-length
// channel.
func taintedVars(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	exprBad := func(e ast.Expr) bool {
		bad := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil && tainted[obj] {
					bad = true
				}
			case *ast.CallExpr:
				if reads[decoderCall(info, n)] {
					bad = true
				}
			}
			return !bad
		})
		return bad
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			anyBad := false
			for _, rhs := range as.Rhs {
				if exprBad(rhs) {
					anyBad = true
				}
			}
			if !anyBad {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return tainted
}
