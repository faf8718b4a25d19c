package cast_test

import (
	"reflect"
	"testing"

	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/samate"
)

// refChildren is the slice-returning child list the walker used before
// EachChild, kept as the reference for TestEachChildMatchesChildren. Its
// typed-nil filter is reflect's, since the package's own is unexported.
func refChildren(n cast.Node) []cast.Node {
	var out []cast.Node
	add := func(c cast.Node) {
		if c == nil {
			return
		}
		if v := reflect.ValueOf(c); v.Kind() == reflect.Pointer && v.IsNil() {
			return
		}
		out = append(out, c)
	}
	switch x := n.(type) {
	case *cast.Ident, *cast.IntLit, *cast.FloatLit, *cast.CharLit, *cast.StringLit,
		*cast.BreakStmt, *cast.ContinueStmt, *cast.GotoStmt, *cast.NullStmt,
		*cast.RecordDecl, *cast.TypedefDecl, *cast.EnumDecl, *cast.ParamDecl:
		// Leaves.
	case *cast.ParenExpr:
		add(x.Inner)
	case *cast.UnaryExpr:
		add(x.Operand)
	case *cast.PostfixExpr:
		add(x.Operand)
	case *cast.BinaryExpr:
		add(x.X)
		add(x.Y)
	case *cast.AssignExpr:
		add(x.LHS)
		add(x.RHS)
	case *cast.CondExpr:
		add(x.Cond)
		add(x.Then)
		add(x.Else)
	case *cast.CallExpr:
		add(x.Fun)
		for _, a := range x.Args {
			add(a)
		}
	case *cast.IndexExpr:
		add(x.Base)
		add(x.Index)
	case *cast.MemberExpr:
		add(x.Base)
	case *cast.CastExpr:
		add(x.Operand)
	case *cast.SizeofExpr:
		if x.Operand != nil {
			add(x.Operand)
		}
	case *cast.CommaExpr:
		add(x.X)
		add(x.Y)
	case *cast.InitListExpr:
		for _, e := range x.Elems {
			add(e)
		}
	case *cast.ExprStmt:
		add(x.X)
	case *cast.DeclStmt:
		for _, d := range x.Decls {
			add(d)
		}
	case *cast.CompoundStmt:
		for _, s := range x.Items {
			add(s)
		}
	case *cast.IfStmt:
		add(x.Cond)
		add(x.Then)
		add(x.Else)
	case *cast.WhileStmt:
		add(x.Cond)
		add(x.Body)
	case *cast.DoWhileStmt:
		add(x.Body)
		add(x.Cond)
	case *cast.ForStmt:
		add(x.Init)
		add(x.Cond)
		add(x.Post)
		add(x.Body)
	case *cast.ReturnStmt:
		add(x.Result)
	case *cast.LabeledStmt:
		add(x.Stmt)
	case *cast.SwitchStmt:
		add(x.Tag)
		add(x.Body)
	case *cast.CaseStmt:
		add(x.Value)
		add(x.Stmt)
	case *cast.VarDecl:
		add(x.Init)
	case *cast.MultiDecl:
		for _, d := range x.Decls {
			add(d)
		}
	case *cast.FuncDef:
		for _, p := range x.Params {
			add(p)
		}
		add(x.Body)
	case *cast.TranslationUnit:
		for _, d := range x.Decls {
			add(d)
		}
	}
	return out
}

// parseSAMATE parses every generated SAMATE program.
func parseSAMATE(t *testing.T) []*cast.TranslationUnit {
	t.Helper()
	var units []*cast.TranslationUnit
	for _, cwe := range samate.CWEs {
		for _, p := range samate.Generate(cwe, samate.TableIIICounts[cwe]) {
			tu, err := cparse.Parse(p.ID+".c", p.Source)
			if err != nil {
				t.Fatalf("%s: %v", p.ID, err)
			}
			units = append(units, tu)
		}
	}
	return units
}

// TestEachChildMatchesChildren: over every SAMATE program, EachChild
// visits exactly the children the slice-returning walker listed, in the
// same order, at every node.
func TestEachChildMatchesChildren(t *testing.T) {
	nodes := 0
	for _, tu := range parseSAMATE(t) {
		var check func(n cast.Node)
		check = func(n cast.Node) {
			nodes++
			want := refChildren(n)
			var got []cast.Node
			cast.EachChild(n, func(c cast.Node) { got = append(got, c) })
			if len(got) != len(want) {
				t.Fatalf("%s: %T has %d children, reference lists %d", tu.File.Name(), n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: %T child %d is %T, reference lists %T", tu.File.Name(), n, i, got[i], want[i])
				}
			}
			for _, c := range want {
				check(c)
			}
		}
		check(tu)
	}
	if nodes == 0 {
		t.Fatal("no nodes visited")
	}
}

// visitAll is a visitor that captures nothing.
func visitAll(cast.Node) bool { return true }

// TestInspectAllocationFree: a whole-unit walk with a non-capturing
// visitor allocates nothing.
func TestInspectAllocationFree(t *testing.T) {
	p := samate.Generate(samate.CWEs[0], 1)[0]
	tu, err := cparse.Parse(p.ID+".c", p.Source)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { cast.Inspect(tu, visitAll) }); allocs != 0 {
		t.Fatalf("Inspect allocated %v times per walk, want 0", allocs)
	}
}
