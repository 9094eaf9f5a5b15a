package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BoundedDecode enforces allocation-bounded decoding — the invariant
// FuzzCkptDecode and FuzzStoreDecode probe dynamically, caught statically: a
// slice allocation must never be sized by a length that was read off the
// wire unless that length was bounded first. A hostile 4-byte prefix
// claiming 2^32 elements must fail the length check, not the allocator.
//
// The analyzer taint-tracks within each function body:
//
//   - a value is wire-tainted if it comes from a raw little-endian reader
//     (methods named u8/u16/u32/u64/i64 in a decode package, their exported
//     spellings U8…I64 on the shared frame.Reader, or encoding/binary's
//     Uint16/Uint32/Uint64), directly or through conversions and arithmetic;
//   - taint clears when the length flows through a bounding reader helper —
//     a method named count/count16 (Count/Count16 on frame.Reader) — or when
//     the variable is compared against anything but the constant zero before
//     the allocation (v < max, v == want, or the guard form v > max
//     { return });
//   - make([]T, n) or make([]T, len, n) with a tainted size is a finding.
//
// A lower-bound check alone (n > 0) does not clear taint: it rejects
// nothing a hostile prefix would send.
var BoundedDecode = &Analyzer{
	Name: "boundeddecode",
	Doc:  "forbid make() sized by an unbounded wire-read length in decode paths",
	Run:  runBoundedDecode,
}

// wireReadFuncs are the method names that read raw fixed-width integers off
// a wire buffer in this codebase's reader idiom.
var wireReadFuncs = map[string]bool{
	"u8": true, "u16": true, "u32": true, "u64": true, "i64": true,
}

// boundingFuncs are the method names that read a count and bound it against
// the remaining input before returning it.
var boundingFuncs = map[string]bool{
	"count": true, "count16": true,
}

// readerMethodName is the name fn is matched under in the tables above:
// frame.Reader exports the same idiom capitalized (U32, Count).
func readerMethodName(fn *types.Func) string {
	if fn.Pkg() != nil && fn.Pkg().Path() == "kagura/internal/frame" && fn.Type().(*types.Signature).Recv() != nil {
		return strings.ToLower(fn.Name())
	}
	return fn.Name()
}

func runBoundedDecode(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkBoundedDecode(pass, fd.Body)
			}
		}
	}
	return nil
}

// checkBoundedDecode taint-tracks one function body in source order.
func checkBoundedDecode(pass *Pass, body *ast.BlockStmt) {
	tainted := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Only 1:1 assignments can taint; multi-value unpacking comes
			// from function results this analyzer treats as clean.
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj == nil {
					continue
				}
				tainted[obj] = exprWireTainted(pass, tainted, n.Rhs[i])
			}
		case *ast.BinaryExpr:
			// A comparison sanctions the compared variable — whether spelled
			// n <= max or as the guard n > max { return } — except against
			// the constant zero: n > 0 is a lower bound and rejects nothing
			// a hostile length prefix would send.
			switch n.Op {
			case token.LSS, token.LEQ, token.EQL, token.GTR, token.GEQ:
				if !isZeroConst(pass, n.Y) {
					clearBound(pass, tainted, n.X)
				}
				if !isZeroConst(pass, n.X) {
					clearBound(pass, tainted, n.Y)
				}
			}
		case *ast.CallExpr:
			if isBuiltinMake(pass, n) {
				for _, size := range n.Args[1:] {
					if exprWireTainted(pass, tainted, size) {
						pass.Reportf(size.Pos(), "boundeddecode",
							"allocation sized by an unbounded wire-read length; a hostile length prefix reaches the allocator — bound it against the remaining input (frame.Reader.Count idiom) before make")
					}
				}
			}
		}
		return true
	})
}

// isZeroConst reports whether e typechecks to the constant 0.
func isZeroConst(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[ast.Unparen(e)]
	return ok && tv.Value != nil && tv.Value.String() == "0"
}

// clearBound lifts taint from an identifier that just received an upper
// bound.
func clearBound(pass *Pass, tainted map[types.Object]bool, e ast.Expr) {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := pass.Info.Uses[id]; obj != nil {
			delete(tainted, obj)
		}
	}
}

// exprWireTainted reports whether e carries an unbounded wire-read length.
func exprWireTainted(pass *Pass, tainted map[types.Object]bool, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pass.Info.Uses[e]
		return obj != nil && tainted[obj]
	case *ast.BinaryExpr:
		return exprWireTainted(pass, tainted, e.X) || exprWireTainted(pass, tainted, e.Y)
	case *ast.UnaryExpr:
		return exprWireTainted(pass, tainted, e.X)
	case *ast.CallExpr:
		// A conversion propagates its operand's taint (int(r.u32())).
		if tv, ok := pass.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return exprWireTainted(pass, tainted, e.Args[0])
		}
		fn := pass.FuncOf(e)
		if fn == nil {
			return false
		}
		name := readerMethodName(fn)
		if boundingFuncs[name] {
			return false
		}
		if wireReadFuncs[name] && fn.Type().(*types.Signature).Recv() != nil {
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" {
			switch fn.Name() {
			case "Uint16", "Uint32", "Uint64":
				return true
			}
		}
		return false
	}
	return false
}

// isBuiltinMake reports whether call invokes the make builtin with a size.
func isBuiltinMake(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) < 2 {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "make"
}
