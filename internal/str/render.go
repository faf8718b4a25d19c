package str

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cast"
	"repro/internal/ctoken"
	"repro/internal/ctype"
	"repro/internal/edit"
	"repro/internal/pointsto"
)

// renderFunc queues one edit per statement or clause that touches a
// target. Each edit's replacement text is produced by the recursive
// renderer, so nested uses (pattern 13's buf1[0] = buf2[0]) come out as a
// single spliced rewrite.
func (t *Transformer) renderFunc(fn *cast.FuncDef, edits *edit.Script) {
	var walkStmt func(s cast.Stmt, inBlock bool)
	handleExpr := func(e cast.Expr, stmtLevel bool) {
		if e == nil || !t.containsTarget(e) {
			return
		}
		var text string
		if stmtLevel {
			text = t.renderTop(e)
		} else {
			text = t.renderExpr(e)
		}
		edits.Add(edit.Replace(e.Extent(), text))
	}
	// handleExprStmt wraps multi-statement rewrites (pattern 3 expands an
	// allocation into several statements) in braces when the statement is
	// a brace-less branch arm, so every piece stays under the guard.
	handleExprStmt := func(es *cast.ExprStmt, inBlock bool) {
		if !t.containsTarget(es.X) {
			return
		}
		text := t.renderTop(es.X)
		if !inBlock && strings.Contains(text, ";") {
			edits.Add(edit.Replace(es.Extent(), "{ "+text+"; }"))
			return
		}
		edits.Add(edit.Replace(es.X.Extent(), text))
	}
	walkStmt = func(s cast.Stmt, inBlock bool) {
		if s == nil {
			return
		}
		switch x := s.(type) {
		case *cast.DeclStmt:
			t.renderDeclStmt(x, edits)
		case *cast.ExprStmt:
			handleExprStmt(x, inBlock)
		case *cast.ReturnStmt:
			if x.Result != nil {
				handleExpr(x.Result, false)
			}
		case *cast.CompoundStmt:
			for _, item := range x.Items {
				walkStmt(item, true)
			}
		case *cast.IfStmt:
			handleExpr(x.Cond, false)
			walkStmt(x.Then, false)
			walkStmt(x.Else, false)
		case *cast.WhileStmt:
			handleExpr(x.Cond, false)
			walkStmt(x.Body, false)
		case *cast.DoWhileStmt:
			walkStmt(x.Body, false)
			handleExpr(x.Cond, false)
		case *cast.ForStmt:
			walkStmt(x.Init, false)
			handleExpr(x.Cond, false)
			handleExpr(x.Post, true)
			walkStmt(x.Body, false)
		case *cast.SwitchStmt:
			handleExpr(x.Tag, false)
			walkStmt(x.Body, false)
		case *cast.CaseStmt:
			walkStmt(x.Stmt, true)
		case *cast.LabeledStmt:
			walkStmt(x.Stmt, inBlock)
		}
	}
	walkStmt(fn.Body, true)
}

// renderDeclStmt rewrites a declaration statement containing targets into
// the pattern-2 sequence:
//
//	stralloc *buf;  stralloc ssss_buf = {0,0,0};  buf = &ssss_buf;
//
// followed by capacity/initializer statements.
func (t *Transformer) renderDeclStmt(ds *cast.DeclStmt, edits *edit.Script) {
	anyTarget := false
	for _, d := range ds.Decls {
		if d.Sym != nil && t.targets[d.Sym] {
			anyTarget = true
			break
		}
	}
	if !anyTarget {
		// Initializers may still mention targets declared earlier.
		for _, d := range ds.Decls {
			if d.Init != nil && t.containsTarget(d.Init) {
				edits.Add(edit.Replace(d.Init.Extent(), t.renderExpr(d.Init)))
			}
		}
		return
	}

	indent := t.unit.File.Indent(ds.Extent().Pos)
	var (
		ptrDecls   []string // stralloc *a
		backDecls  []string // ssss_a = {0,0,0}
		inits      []string // a = &ssss_a;  a->a = N;  copy inits
		keepOthers []string // non-target declarators kept as-is
	)
	for _, d := range ds.Decls {
		if d.Sym == nil || !t.targets[d.Sym] {
			// Sibling declarators share the whole declaration's extent, so
			// synthesize the kept declarator from its type and name.
			keep := declText(d.Name, d.Type)
			if d.Init != nil {
				keep += " = " + t.renderExpr(d.Init)
			}
			keepOthers = append(keepOthers, keep+";")
			continue
		}
		back := t.names.Fresh("ssss_" + d.Name)
		ptrDecls = append(ptrDecls, "*"+d.Name)
		backDecls = append(backDecls, back+" = {0,0,0}")
		inits = append(inits, fmt.Sprintf("%s = &%s;", d.Name, back))
		// Arrays carry their declared capacity. Section II-B3: "Upon
		// initialization, the stralloc library appropriately allocates
		// enough memory for the string being stored" — stralloc_ready
		// allocates the backing storage and records a (the zlib example
		// shows the capacity assignment).
		if arr, ok := ctype.Unqualify(d.Type).(*ctype.Array); ok && arr.Len >= 0 {
			es := 1
			if s := arr.Elem.Size(); s > 0 {
				es = s
			}
			inits = append(inits, fmt.Sprintf("stralloc_ready(%s, %d);", d.Name, arr.Len*es))
		}
		if d.Init != nil {
			if stmt := t.renderInit(d.Name, d.Init); stmt != "" {
				inits = append(inits, stmt)
			}
		}
	}

	var lines []string
	lines = append(lines, "stralloc "+strings.Join(ptrDecls, ", ")+";")
	lines = append(lines, "stralloc "+strings.Join(backDecls, ", ")+";")
	lines = append(lines, inits...)
	lines = append(lines, keepOthers...)
	edits.Add(edit.Replace(ds.Extent(), strings.Join(lines, "\n"+indent)))
}

// renderInit produces the initialization statement for a declared target
// with an initializer (patterns 3-7 in declaration position).
func (t *Transformer) renderInit(name string, init cast.Expr) string {
	text := t.renderAssignParts(name, cast.AssignPlain, init)
	if text == "" {
		return ""
	}
	return text + ";"
}

// declText renders a C declarator for the given name and type, which
// must be plain (plainDeclarator).
func declText(name string, typ ctype.Type) string {
	switch x := ctype.Unqualify(typ).(type) {
	case *ctype.Pointer:
		if ctype.IsArray(x.Elem) {
			// A pointer to an array binds looser than the array suffix.
			return declText("(*"+name+")", x.Elem)
		}
		return declText("*"+name, x.Elem)
	case *ctype.Array:
		if x.Len >= 0 {
			return declText(fmt.Sprintf("%s[%d]", name, x.Len), x.Elem)
		}
		return declText(name+"[]", x.Elem)
	default:
		return typ.String() + " " + name
	}
}

// plainDeclarator reports that declText can spell typ: pointers and
// arrays over a type that is no function.
func plainDeclarator(typ ctype.Type) bool {
	for {
		switch x := ctype.Unqualify(typ).(type) {
		case *ctype.Pointer:
			typ = x.Elem
		case *ctype.Array:
			typ = x.Elem
		case *ctype.Func:
			return false
		default:
			return true
		}
	}
}

// renderTop renders an expression in statement position (may produce
// multiple statements, no trailing semicolon removed from interior).
func (t *Transformer) renderTop(e cast.Expr) string {
	switch x := cast.Unparen(e).(type) {
	case *cast.AssignExpr:
		if out := t.renderAssignTop(x); out != "" {
			return out
		}
	case *cast.UnaryExpr:
		if (x.Op == cast.UnaryPreInc || x.Op == cast.UnaryPreDec) && t.isTarget(x.Operand) {
			return t.incDecText(t.targetName(x.Operand), x.Op == cast.UnaryPreInc, "1")
		}
	case *cast.PostfixExpr:
		if t.isTarget(x.Operand) {
			return t.incDecText(t.targetName(x.Operand), x.Op == cast.PostfixInc, "1")
		}
	}
	return t.renderExpr(e)
}

// incDecText renders patterns 8-9 without the trailing semicolon (the
// statement keeps its own).
func (t *Transformer) incDecText(name string, inc bool, amount string) string {
	if inc {
		return fmt.Sprintf("stralloc_increment_by(%s, %s)", name, amount)
	}
	return fmt.Sprintf("stralloc_decrement_by(%s, %s)", name, amount)
}

// renderAssignTop renders an assignment in statement position, returning
// "" when the generic renderer should handle it.
func (t *Transformer) renderAssignTop(a *cast.AssignExpr) string {
	lhs := cast.Unparen(a.LHS)

	// Pointer-variable assignments: patterns 3-9.
	if t.isTarget(lhs) {
		name := t.targetName(lhs)
		switch a.Op {
		case cast.AssignPlain:
			return t.renderAssignParts(name, a.Op, a.RHS)
		case cast.AssignAdd:
			return t.incDecText(name, true, t.renderExpr(a.RHS))
		case cast.AssignSub:
			return t.incDecText(name, false, t.renderExpr(a.RHS))
		}
		return ""
	}

	// Element writes: patterns 12-15.
	if idx, ok := lhs.(*cast.IndexExpr); ok && t.isTarget(idx.Base) && a.Op == cast.AssignPlain {
		return fmt.Sprintf("stralloc_dereference_replace_by(%s, %s, %s)",
			t.targetName(idx.Base), t.renderExpr(idx.Index), t.renderExpr(a.RHS))
	}
	if de, ok := lhs.(*cast.UnaryExpr); ok && de.Op == cast.UnaryDeref && a.Op == cast.AssignPlain {
		if name, off, ok := t.derefTarget(de); ok {
			return fmt.Sprintf("stralloc_dereference_replace_by(%s, %s, %s)",
				name, off, t.renderExpr(a.RHS))
		}
	}
	return ""
}

// renderAssignParts renders "name = rhs" for a target pointer (patterns
// 3, 5-7; checkPointerRHS refuses a null pointer). The result omits the trailing semicolon except for the
// multi-statement allocation pattern, which embeds its own.
func (t *Transformer) renderAssignParts(name string, _ cast.AssignOp, rhs cast.Expr) string {
	r := cast.Unparen(rhs)
	switch x := r.(type) {
	case *cast.Ident:
		if x.Sym != nil && t.targets[x.Sym] {
			// Pattern 5: assignment to other buffer — no change.
			return name + " = " + x.Name
		}
		// Plain char* source: copy the string contents.
		return fmt.Sprintf("stralloc_copys(%s, %s)", name, x.Name)
	case *cast.StringLit:
		// Pattern 6.
		lit := t.text(x)
		return fmt.Sprintf("stralloc_copybuf(%s, %s, strlen(%s))", name, lit, lit)
	case *cast.CallExpr:
		if pointsto.IsHeapAllocator(x.Callee()) {
			// Pattern 3: allocation — assign member variables. f mirrors s
			// so pointer-arithmetic bounds checks have a base.
			sizeText := t.allocSizeText(x)
			return fmt.Sprintf("%s->s = %s; %s->f = %s->s; %s->a = %s",
				name, t.text(x), name, name, name, sizeText)
		}
		return fmt.Sprintf("stralloc_copys(%s, %s)", name, t.renderExpr(rhs))
	case *cast.CastExpr:
		// Pattern 7: analyze rhs, replace with library function.
		castText := t.renderExpr(x)
		return fmt.Sprintf("stralloc_copybuf(%s, %s, sizeof(%s))", name, castText, castText)
	}
	return fmt.Sprintf("stralloc_copys(%s, %s)", name, t.renderExpr(rhs))
}

// allocSizeText extracts the byte count from an allocation call.
func (t *Transformer) allocSizeText(call *cast.CallExpr) string {
	switch call.Callee() {
	case "calloc":
		if len(call.Args) == 2 {
			return "(" + t.text(call.Args[0]) + ") * (" + t.text(call.Args[1]) + ")"
		}
	case "malloc", "alloca", "realloc":
		if n := len(call.Args); n > 0 {
			return t.text(call.Args[n-1])
		}
	case "strdup":
		if len(call.Args) == 1 {
			return "strlen(" + t.renderValue(call.Args[0]) + ") + 1"
		}
	}
	return "0"
}

// renderExpr renders an expression in value position, rewriting target
// uses per the read patterns (1, 10, 11, 16, 17) and splicing everything
// else from the original text.
func (t *Transformer) renderExpr(e cast.Expr) string {
	if !t.containsTarget(e) {
		return t.text(e)
	}
	switch x := e.(type) {
	case *cast.Ident:
		if t.targets[x.Sym] {
			// Bare identifier in value context: the char* value lives in
			// the s member.
			return x.Name + "->s"
		}
		return x.Name
	case *cast.ParenExpr:
		return "(" + t.renderExpr(x.Inner) + ")"
	case *cast.IndexExpr:
		if t.isTarget(x.Base) {
			// Pattern 11.
			return fmt.Sprintf("stralloc_get_dereferenced_char_at(%s, %s)",
				t.targetName(x.Base), t.renderExpr(x.Index))
		}
		return t.splice(x)
	case *cast.UnaryExpr:
		if x.Op == cast.UnaryDeref {
			if name, off, ok := t.derefTarget(x); ok {
				return fmt.Sprintf("stralloc_get_dereferenced_char_at(%s, %s)", name, off)
			}
		}
		return t.splice(x)
	case *cast.SizeofExpr:
		if x.Operand != nil && t.isTarget(x.Operand) {
			// Pattern 10: sizeof(buf) -> buf->a.
			return t.targetName(x.Operand) + "->a"
		}
		return t.splice(x)
	case *cast.CallExpr:
		return t.renderCall(x)
	case *cast.AssignExpr:
		if out := t.renderAssignTop(x); out != "" {
			return out
		}
		return t.splice(x)
	default:
		return t.splice(x)
	}
}

// renderCall rewrites calls per Table II rows 16-17.
func (t *Transformer) renderCall(call *cast.CallExpr) string {
	name := call.Callee()
	args := call.Args

	// strlen(buf) -> buf->len.
	if name == "strlen" && len(args) == 1 && t.isTarget(args[0]) {
		return t.targetName(args[0]) + "->len"
	}

	// Destination-mapped library functions.
	if len(args) > 0 && t.isTarget(args[0]) {
		dst := t.targetName(args[0])
		switch name {
		case "strcpy":
			return t.copyLike(dst, "copy", args[1])
		case "strcat":
			return t.copyLike(dst, "cat", args[1])
		case "strncpy":
			if len(args) == 3 {
				return fmt.Sprintf("stralloc_copybuf(%s, %s, %s)", dst, t.renderValue(args[1]), t.renderExpr(args[2]))
			}
		case "strncat":
			if len(args) == 3 {
				return fmt.Sprintf("stralloc_catbuf(%s, %s, %s)", dst, t.renderValue(args[1]), t.renderExpr(args[2]))
			}
		case "memcpy":
			if len(args) == 3 {
				return fmt.Sprintf("stralloc_copybuf(%s, %s, %s)", dst, t.renderValue(args[1]), t.renderExpr(args[2]))
			}
		case "memset":
			if len(args) == 3 {
				return fmt.Sprintf("stralloc_memset(%s, %s, %s)", dst, t.renderExpr(args[1]), t.renderExpr(args[2]))
			}
		}
	}

	// Everything else: arguments are values; target idents become ->s
	// (patterns 16 read-only and 17).
	var sb strings.Builder
	sb.WriteString(t.text(cast.Unparen(call.Fun)))
	sb.WriteString("(")
	for i, a := range args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.renderValue(a))
	}
	sb.WriteString(")")
	return sb.String()
}

// copyLike renders strcpy/strcat family onto stralloc_copy/cat variants
// depending on the source expression.
func (t *Transformer) copyLike(dst, op string, src cast.Expr) string {
	s := cast.Unparen(src)
	switch x := s.(type) {
	case *cast.Ident:
		if x.Sym != nil && t.targets[x.Sym] {
			return fmt.Sprintf("stralloc_%s(%s, %s)", op, dst, x.Name)
		}
		return fmt.Sprintf("stralloc_%ss(%s, %s)", op, dst, x.Name)
	case *cast.StringLit:
		lit := t.text(x)
		return fmt.Sprintf("stralloc_%sbuf(%s, %s, strlen(%s))", op, dst, lit, lit)
	default:
		return fmt.Sprintf("stralloc_%ss(%s, %s)", op, dst, t.renderValue(src))
	}
}

// renderValue renders an expression that must yield a char* value:
// target identifiers become name->s; everything else goes through
// renderExpr.
func (t *Transformer) renderValue(e cast.Expr) string {
	if t.isTarget(e) {
		return t.targetName(e) + "->s"
	}
	return t.renderExpr(e)
}

// derefTarget decomposes *(buf ± n) / *buf into (name, offsetText).
func (t *Transformer) derefTarget(de *cast.UnaryExpr) (name, offset string, ok bool) {
	inner := cast.Unparen(de.Operand)
	if t.isTarget(inner) {
		return t.targetName(inner), "0", true
	}
	if bin, isBin := inner.(*cast.BinaryExpr); isBin {
		if t.isTarget(bin.X) && (bin.Op == cast.BinaryAdd || bin.Op == cast.BinarySub) {
			off := t.renderExpr(bin.Y)
			if bin.Op == cast.BinarySub {
				off = "-(" + off + ")"
			}
			return t.targetName(bin.X), off, true
		}
		if t.isTarget(bin.Y) && bin.Op == cast.BinaryAdd {
			return t.targetName(bin.Y), t.renderExpr(bin.X), true
		}
	}
	return "", "", false
}

// splice reassembles a composite node from the original text with each
// target-containing child re-rendered.
func (t *Transformer) splice(n cast.Node) string {
	// Only children with valid extents inside n participate.
	type part struct {
		ext  ctoken.Extent
		text string
	}
	var parts []part
	cast.EachChild(n, func(c cast.Node) {
		ce := c.Extent()
		if !ce.IsValid() || !n.Extent().Covers(ce) {
			return
		}
		if !t.containsTarget(c) {
			return
		}
		expr, ok := c.(cast.Expr)
		if !ok {
			return
		}
		parts = append(parts, part{ext: ce, text: t.renderExpr(expr)})
	})
	if len(parts) == 0 {
		return t.text(n)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].ext.Pos < parts[j].ext.Pos })
	src := t.unit.File.Src()
	base := n.Extent()
	var sb strings.Builder
	cursor := base.Pos
	for _, p := range parts {
		sb.WriteString(src[cursor:p.ext.Pos])
		sb.WriteString(p.text)
		cursor = p.ext.End
	}
	sb.WriteString(src[cursor:base.End])
	return sb.String()
}
