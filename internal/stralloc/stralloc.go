// Package stralloc provides the bounds-tracking string library that SAFE
// TYPE REPLACEMENT introduces (Section II-B3): a modified version of the
// stralloc data structure from qmail. The package emits the C header and
// implementation that transformed programs compile against; the checked
// interpreter (internal/cinterp) executes this C source directly, so the
// fix mechanism the paper evaluates — runtime bounds checks inside the
// library — is exercised end to end.
//
// The data structure:
//
//	typedef struct stralloc {
//	    char *s;          // the string storage
//	    char *f;          // base of the original allocation (for bounds)
//	    unsigned int len; // logical string length
//	    unsigned int a;   // allocated capacity in bytes
//	} stralloc;
//
// The library contains 18 functions (Section III-C: "Our implementation
// contains 18 functions").
package stralloc

// Header returns the C declarations for the stralloc type and library.
func Header() string {
	return `/* stralloc: bounds-tracking string library introduced by SAFE TYPE
   REPLACEMENT. Adapted from the stralloc structure of qmail. */
typedef struct stralloc {
    char* s;
    char* f;
    unsigned int len;
    unsigned int a;
} stralloc;

void stralloc_init(stralloc *sa);
int stralloc_ready(stralloc *sa, unsigned int n);
void stralloc_free(stralloc *sa);
int stralloc_copys(stralloc *sa, const char *src);
int stralloc_copybuf(stralloc *sa, const char *src, unsigned int n);
int stralloc_copy(stralloc *sa, stralloc *src);
int stralloc_cats(stralloc *sa, const char *src);
int stralloc_catbuf(stralloc *sa, const char *src, unsigned int n);
int stralloc_cat(stralloc *sa, stralloc *src);
int stralloc_append(stralloc *sa, char c);
int stralloc_memset(stralloc *sa, char c, unsigned int n);
char stralloc_get_dereferenced_char_at(stralloc *sa, long i);
int stralloc_dereference_replace_by(stralloc *sa, long i, char c);
int stralloc_increment_by(stralloc *sa, unsigned int n);
int stralloc_decrement_by(stralloc *sa, unsigned int n);
int stralloc_compare(stralloc *sa, stralloc *other);
long stralloc_find_char(stralloc *sa, char c);
char *stralloc_substring_at(stralloc *sa, unsigned int i);
`
}

// Implementation returns the C implementation of the library. Every
// operation checks bounds against the tracked capacity before touching
// memory; growth happens through stralloc_ready, so a former overflow
// becomes either a safe reallocation (writes through the copy/cat API) or
// a refused access (reads/writes through the dereference API).
func Implementation() string {
	return `/* stralloc implementation (see internal/stralloc). */

void stralloc_init(stralloc *sa) {
    sa->s = 0;
    sa->f = 0;
    sa->len = 0;
    sa->a = 0;
}

int stralloc_ready(stralloc *sa, unsigned int n) {
    char *ns;
    unsigned int i;
    if (n == 0) { n = 1; }
    if (sa->s && sa->a >= n) { return 1; }
    ns = malloc(n);
    if (!ns) { return 0; }
    for (i = 0; i < sa->len && i < n; i++) {
        ns[i] = sa->s[i];
    }
    if (sa->s && sa->s == sa->f) {
        free(sa->s);
    }
    sa->s = ns;
    sa->f = ns;
    sa->a = n;
    return 1;
}

void stralloc_free(stralloc *sa) {
    if (sa->s && sa->s == sa->f) {
        free(sa->s);
    }
    sa->s = 0;
    sa->f = 0;
    sa->len = 0;
    sa->a = 0;
}

int stralloc_copybuf(stralloc *sa, const char *src, unsigned int n) {
    unsigned int i;
    if (!stralloc_ready(sa, n + 1)) { return 0; }
    for (i = 0; i < n; i++) {
        sa->s[i] = src[i];
    }
    sa->s[n] = '\0';
    sa->len = n;
    return 1;
}

int stralloc_copys(stralloc *sa, const char *src) {
    return stralloc_copybuf(sa, src, strlen(src));
}

int stralloc_copy(stralloc *sa, stralloc *src) {
    return stralloc_copybuf(sa, src->s, src->len);
}

int stralloc_catbuf(stralloc *sa, const char *src, unsigned int n) {
    unsigned int i;
    if (!stralloc_ready(sa, sa->len + n + 1)) { return 0; }
    for (i = 0; i < n; i++) {
        sa->s[sa->len + i] = src[i];
    }
    sa->len = sa->len + n;
    sa->s[sa->len] = '\0';
    return 1;
}

int stralloc_cats(stralloc *sa, const char *src) {
    return stralloc_catbuf(sa, src, strlen(src));
}

int stralloc_cat(stralloc *sa, stralloc *src) {
    return stralloc_catbuf(sa, src->s, src->len);
}

int stralloc_append(stralloc *sa, char c) {
    return stralloc_catbuf(sa, &c, 1);
}

int stralloc_memset(stralloc *sa, char c, unsigned int n) {
    unsigned int i;
    unsigned int limit;
    limit = n;
    if (sa->a != 0 && limit > sa->a) {
        /* Clamp to the declared capacity: this is the bounds check that
           removes CWE-121/122 overflows from memset-style fills. */
        limit = sa->a;
    }
    if (!stralloc_ready(sa, limit + 1)) { return 0; }
    for (i = 0; i < limit; i++) {
        sa->s[i] = c;
    }
    sa->s[limit] = '\0';
    if (limit > sa->len) { sa->len = limit; }
    return 1;
}

char stralloc_get_dereferenced_char_at(stralloc *sa, long i) {
    /* Bounds-checked read: out-of-range indexes (CWE-126 overread,
       CWE-127 underread) return NUL instead of touching memory. */
    if (i < 0) { return '\0'; }
    if (!sa->s || (unsigned int)i >= sa->a) { return '\0'; }
    return sa->s[i];
}

int stralloc_dereference_replace_by(stralloc *sa, long i, char c) {
    /* Bounds-checked write: refuses CWE-124 underwrites and grows for
       in-range-but-unallocated indexes. Writing NUL keeps C string
       semantics: it terminates the string, so len shrinks to i. */
    if (i < 0) { return 0; }
    if (!stralloc_ready(sa, (unsigned int)i + 1)) { return 0; }
    sa->s[i] = c;
    if (c == '\0') {
        if ((unsigned int)i < sa->len) { sa->len = (unsigned int)i; }
    } else if ((unsigned int)i + 1 > sa->len) {
        sa->len = (unsigned int)i + 1;
    }
    return 1;
}

int stralloc_increment_by(stralloc *sa, unsigned int n) {
    /* Pointer arithmetic replacement: advance s, keeping f for bounds. */
    if (!sa->s) { return 0; }
    if ((unsigned int)(sa->s - sa->f) + n > sa->a) { return 0; }
    sa->s = sa->s + n;
    if (sa->len >= n) { sa->len = sa->len - n; } else { sa->len = 0; }
    return 1;
}

int stralloc_decrement_by(stralloc *sa, unsigned int n) {
    if (!sa->s) { return 0; }
    if (sa->s - n < sa->f) { return 0; }
    sa->s = sa->s - n;
    sa->len = sa->len + n;
    return 1;
}

int stralloc_compare(stralloc *sa, stralloc *other) {
    unsigned int i;
    unsigned int min;
    min = sa->len;
    if (other->len < min) { min = other->len; }
    for (i = 0; i < min; i++) {
        if (sa->s[i] != other->s[i]) {
            if (sa->s[i] < other->s[i]) { return -1; }
            return 1;
        }
    }
    if (sa->len < other->len) { return -1; }
    if (sa->len > other->len) { return 1; }
    return 0;
}

long stralloc_find_char(stralloc *sa, char c) {
    unsigned int i;
    for (i = 0; i < sa->len; i++) {
        if (sa->s[i] == c) { return (long)i; }
    }
    return -1;
}

char *stralloc_substring_at(stralloc *sa, unsigned int i) {
    if (!sa->s || i >= sa->len) { return 0; }
    return sa->s + i;
}
`
}

// FullSource returns header plus implementation, ready to prepend to a
// transformed translation unit.
func FullSource() string {
	return Header() + "\n" + Implementation()
}
