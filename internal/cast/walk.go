package cast

// Inspect traverses the AST rooted at n in depth-first order, calling f for
// each node. If f returns false for a node, its children are skipped.
// Nil children are not visited.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	EachChild(n, func(c Node) { Inspect(c, f) })
}

// InspectExprs traverses the AST and calls f for every expression node.
func InspectExprs(n Node, f func(Expr) bool) {
	Inspect(n, func(node Node) bool {
		if e, ok := node.(Expr); ok {
			return f(e)
		}
		return true
	})
}

// EachChild calls f on each direct child node of n in source order. It
// allocates nothing, so whole-unit walks cost no more than their
// visitors.
func EachChild(n Node, f func(Node)) {
	add := func(c Node) {
		// Typed nils arrive when optional fields (e.g. IfStmt.Else) are
		// absent; filter them so visitors never see nil interfaces with
		// non-nil types.
		if c == nil || isNilNode(c) {
			return
		}
		f(c)
	}
	switch x := n.(type) {
	case *Ident, *IntLit, *FloatLit, *CharLit, *StringLit,
		*BreakStmt, *ContinueStmt, *GotoStmt, *NullStmt,
		*RecordDecl, *TypedefDecl, *EnumDecl:
		// Leaves.
	case *ParenExpr:
		add(x.Inner)
	case *UnaryExpr:
		add(x.Operand)
	case *PostfixExpr:
		add(x.Operand)
	case *BinaryExpr:
		add(x.X)
		add(x.Y)
	case *AssignExpr:
		add(x.LHS)
		add(x.RHS)
	case *CondExpr:
		add(x.Cond)
		add(x.Then)
		add(x.Else)
	case *CallExpr:
		add(x.Fun)
		for _, a := range x.Args {
			add(a)
		}
	case *IndexExpr:
		add(x.Base)
		add(x.Index)
	case *MemberExpr:
		add(x.Base)
	case *CastExpr:
		add(x.Operand)
	case *SizeofExpr:
		if x.Operand != nil {
			add(x.Operand)
		}
	case *CommaExpr:
		add(x.X)
		add(x.Y)
	case *InitListExpr:
		for _, e := range x.Elems {
			add(e)
		}
	case *ExprStmt:
		add(x.X)
	case *DeclStmt:
		for _, d := range x.Decls {
			add(d)
		}
	case *CompoundStmt:
		for _, s := range x.Items {
			add(s)
		}
	case *IfStmt:
		add(x.Cond)
		add(x.Then)
		add(x.Else)
	case *WhileStmt:
		add(x.Cond)
		add(x.Body)
	case *DoWhileStmt:
		add(x.Body)
		add(x.Cond)
	case *ForStmt:
		add(x.Init)
		add(x.Cond)
		add(x.Post)
		add(x.Body)
	case *ReturnStmt:
		add(x.Result)
	case *LabeledStmt:
		add(x.Stmt)
	case *SwitchStmt:
		add(x.Tag)
		add(x.Body)
	case *CaseStmt:
		add(x.Value)
		add(x.Stmt)
	case *VarDecl:
		add(x.Init)
	case *MultiDecl:
		for _, d := range x.Decls {
			add(d)
		}
	case *ParamDecl:
		// Leaf.
	case *FuncDef:
		for _, p := range x.Params {
			add(p)
		}
		add(x.Body)
	case *TranslationUnit:
		for _, d := range x.Decls {
			add(d)
		}
	}
}

// isNilNode reports whether the interface holds a nil typed pointer.
func isNilNode(n Node) bool {
	switch x := n.(type) {
	case Expr:
		return isNilExpr(x)
	case *CompoundStmt:
		return x == nil
	case *VarDecl:
		return x == nil
	case *ParamDecl:
		return x == nil
	}
	return false
}

func isNilExpr(e Expr) bool {
	switch x := e.(type) {
	case *Ident:
		return x == nil
	case *IntLit:
		return x == nil
	case *FloatLit:
		return x == nil
	case *CharLit:
		return x == nil
	case *StringLit:
		return x == nil
	case *ParenExpr:
		return x == nil
	case *UnaryExpr:
		return x == nil
	case *PostfixExpr:
		return x == nil
	case *BinaryExpr:
		return x == nil
	case *AssignExpr:
		return x == nil
	case *CondExpr:
		return x == nil
	case *CallExpr:
		return x == nil
	case *IndexExpr:
		return x == nil
	case *MemberExpr:
		return x == nil
	case *CastExpr:
		return x == nil
	case *SizeofExpr:
		return x == nil
	case *CommaExpr:
		return x == nil
	case *InitListExpr:
		return x == nil
	}
	return e == nil
}
