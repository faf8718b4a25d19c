// Package str implements the SAFE TYPE REPLACEMENT transformation
// (Sections II-B and III-C): locally declared character pointers and
// arrays are replaced by the bounds-tracking stralloc data structure
// (adapted from qmail), and every use site is rewritten following the
// replacement patterns of Table II.
package str

// Pattern is one replacement pattern of Table II.
type Pattern struct {
	ID          int
	Group       string
	Description string
	Before      string
	After       string
}

// TableII lists the replacement patterns exactly as the paper's Table II
// presents them (18 rows across five groups). The operational renderer
// (render.go) implements each row; TestTableIIPatterns exercises every row
// end to end.
var TableII = []Pattern{
	{1, "Declaration and Reference", "Identifier expression", "buf", "buf"},
	{2, "Declaration and Reference", "Declaration statement", "char* buf;",
		"stralloc* buf; stralloc ssss_buf = {0,0,0}; buf = &ssss_buf;"},
	{3, "Assignment Expression", "Allocation of buffer", "buf = malloc(1024)",
		"buf->s = malloc(1024); buf->a = 1024"},
	{4, "Assignment Expression", "Assignment to null or (void*)0", "buf = null", "buf = null"},
	{5, "Assignment Expression", "Assignment to other buffer", "buf1 = buf2", "buf1 = buf2"},
	{6, "Assignment Expression", "Assignment to string literal", `buf = "text"`,
		`stralloc_copybuf(buf, "text", strlen("text"))`},
	{7, "Assignment Expression", "Assignment to cast expression", "buf = (char*)(exp)",
		"stralloc_copybuf(buf, (char*)(exp), sizeof((char*)(exp)))"},
	{8, "Arithmetic and Binary Expressions", "Increment expression", "buf++",
		"stralloc_increment_by(buf, 1)"},
	{9, "Arithmetic and Binary Expressions", "Decrement expression", "buf -= 3",
		"stralloc_decrement_by(buf, 3)"},
	{10, "Arithmetic and Binary Expressions", "Binary expression", "sizeof(buf) < 3",
		"buf->a < 3"},
	{11, "Array Access and Dereference Expressions", "Array access expression", "buf[1]",
		"stralloc_get_dereferenced_char_at(buf, 1)"},
	{12, "Array Access and Dereference Expressions", "Assignment to an array element",
		"buf[1] = 'b'", "stralloc_dereference_replace_by(buf, 1, 'b')"},
	{13, "Array Access and Dereference Expressions", "Assigning one array element to another",
		"buf1[0] = buf2[0]",
		"stralloc_dereference_replace_by(buf1, 0, stralloc_get_dereferenced_char_at(buf2, 0))"},
	{14, "Array Access and Dereference Expressions", "Dereference assignment statement",
		"*(buf+4) = 'a'", "stralloc_dereference_replace_by(buf, 4, 'a')"},
	{15, "Array Access and Dereference Expressions", "Dereferenced assignment to binary expression",
		"*(buf+1) = a + b", "stralloc_dereference_replace_by(buf, 1, a + b)"},
	{16, "Argument in Function Call Expression", "Argument in C library function",
		"strlen(buf)", "buf->len"},
	{17, "Argument in Function Call Expression", "Argument in user defined function",
		"foo(buf)", "foo(buf->s)"},
	{18, "Conditional or Iteration Statement", "Conditional/Iteration statement",
		"if(buf[0] == 'a')", "if(stralloc_get_dereferenced_char_at(buf, 0) == 'a')"},
}
