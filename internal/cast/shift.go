package cast

import "repro/internal/ctoken"

// Shift moves every extent of the trees rooted at decls by d bytes: each
// node's Ext, the NameExtent of variables and functions, the braces of
// blocks and the parentheses of calls. It also moves the declarations of
// syms that no tree holds: a local typedef, whose declaration statement
// is kept empty, and the later names of one typedef declaration. A
// coordinate of 0 is one the parser left unset and stays 0, so Shift by
// -d undoes Shift by d.
func Shift(d ctoken.Pos, decls []Decl, syms []*Symbol) {
	var inTree map[*TypedefDecl]bool
	for _, decl := range decls {
		Inspect(decl, func(n Node) bool {
			shiftNode(n, d)
			if td, ok := n.(*TypedefDecl); ok {
				if inTree == nil {
					inTree = make(map[*TypedefDecl]bool)
				}
				inTree[td] = true
			}
			return true
		})
	}
	for _, s := range syms {
		if td, ok := s.Decl.(*TypedefDecl); ok && !inTree[td] {
			shiftNode(td, d)
		}
	}
}

func shiftNode(n Node, d ctoken.Pos) {
	if x, ok := n.(interface{ extentField() *ctoken.Extent }); ok {
		shiftExtent(x.extentField(), d)
	}
	switch x := n.(type) {
	case *VarDecl:
		shiftExtent(&x.NameExtent, d)
	case *FuncDef:
		shiftExtent(&x.NameExtent, d)
	case *CompoundStmt:
		shiftExtent(&x.LBrace, d)
		shiftExtent(&x.RBrace, d)
	case *CallExpr:
		shiftExtent(&x.LParen, d)
		shiftExtent(&x.RParen, d)
	}
}

func shiftExtent(e *ctoken.Extent, d ctoken.Pos) {
	if e.Pos > 0 {
		e.Pos += d
	}
	if e.End > 0 {
		e.End += d
	}
}
