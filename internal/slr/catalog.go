// Package slr implements the SAFE LIBRARY REPLACEMENT transformation
// (Sections II-A and III-B): unsafe C library calls are replaced with safe,
// size-bounded alternatives, with the destination-buffer size computed by
// Algorithm 1 (internal/buflen). The safe-function dialect the rewrite
// targets is a pluggable internal/backend.Backend; the default is the
// paper's glib dialect.
package slr

// Alternative describes one safe replacement option for an unsafe
// function, as catalogued in Table I of the paper.
type Alternative struct {
	Name      string
	Library   string // providing library
	Signature string // prototype as documented
}

// CatalogEntry is one row of Table I.
type CatalogEntry struct {
	Unsafe       string
	UnsafeProto  string
	Alternatives []Alternative
}

// TableI is the unsafe-function catalogue of the paper (Table I): the
// unsafe functions and the safer alternatives proposed by researchers and
// standards bodies. The default transformation uses the glib-style
// alternatives (backend.Glib) because they are syntactically closest
// to the originals, keeping per-instance changes minimal (Section II-A3);
// the BSD strlcpy column is backend.BSD and the ISO/IEC TR 24731 column
// is backend.C11K.
var TableI = []CatalogEntry{
	{
		Unsafe:      "strcpy",
		UnsafeProto: "char *strcpy(char *dst, const char *src);",
		Alternatives: []Alternative{
			{Name: "g_strlcpy", Library: "glib", Signature: "gsize g_strlcpy(gchar *dst, const gchar *src, gsize dst_size);"},
			{Name: "astrcpy", Library: "libmib", Signature: "char *astrcpy(char **dst_address, const char *src);"},
			{Name: "strcpy_s", Library: "ISO/IEC TR 24731 / SafeCRT", Signature: "errno_t strcpy_s(char *dst, rsize_t dst_size, const char *src);"},
			{Name: "StringCchCopy", Library: "StrSafe", Signature: "HRESULT StringCchCopy(LPTSTR dst, size_t dst_size, LPCTSTR src);"},
			{Name: "safestr_copy", Library: "Safestr", Signature: "safestr_t safestr_copy(safestr_t *dst, safestr_t src);"},
		},
	},
	{
		Unsafe:      "strncpy",
		UnsafeProto: "char *strncpy(char *dst, const char *src, size_t num);",
		Alternatives: []Alternative{
			{Name: "g_strlcpy", Library: "glib", Signature: "gsize g_strlcpy(gchar *dst, const gchar *src, gsize dst_size);"},
			{Name: "astrn0cpy", Library: "libmib", Signature: "char *astrn0cpy(char **dst_address, const char *src, size_t num);"},
			{Name: "strncpy_s", Library: "ISO/IEC TR 24731", Signature: "errno_t strncpy_s(char *dst, rsize_t dst_size, const char *src, rsize_t num);"},
			{Name: "StringCchCopyN", Library: "StrSafe", Signature: "HRESULT StringCchCopyN(LPTSTR dst, size_t dst_size, LPCTSTR src, size_t num);"},
			{Name: "safestr_ncopy", Library: "Safestr", Signature: "safestr_t safestr_ncopy(safestr_t *dst, safestr_t src, size_t num);"},
		},
	},
	{
		Unsafe:      "strcat",
		UnsafeProto: "char *strcat(char *dst, const char *src);",
		Alternatives: []Alternative{
			{Name: "g_strlcat", Library: "glib", Signature: "gsize g_strlcat(gchar *dst, const gchar *src, gsize dst_size);"},
			{Name: "strcat_s", Library: "ISO/IEC TR 24731 / SafeCRT", Signature: "errno_t strcat_s(char *dst, rsize_t dst_size, const char *src);"},
		},
	},
	{
		Unsafe:      "memcpy",
		UnsafeProto: "void *memcpy(void *dst, const void *src, size_t num);",
		Alternatives: []Alternative{
			{Name: "memcpy_s", Library: "ISO/IEC TR 24731", Signature: "errno_t memcpy_s(void *dst, size_t dst_size, const void *src, size_t num);"},
		},
	},
	{
		Unsafe:      "gets",
		UnsafeProto: "char *gets(char *dst);",
		Alternatives: []Alternative{
			{Name: "gets_s", Library: "ISO/IEC TR 24731 / SafeCRT", Signature: "char *gets_s(char *destination, size_t dest_size);"},
			{Name: "fgets", Library: "C99", Signature: "char *fgets(char *dst, int dst_size, FILE *stream);"},
			{Name: "afgets", Library: "libmib", Signature: "char *afgets(char **dst_address, FILE *stream);"},
		},
	},
	{
		Unsafe:      "getenv",
		UnsafeProto: "char *getenv(char *dst);",
		Alternatives: []Alternative{
			{Name: "getenv_s", Library: "ISO/IEC TR 24731", Signature: "errno_t getenv_s(size_t *return_value, char *dst, size_t dst_size, const char *name);"},
		},
	},
	{
		Unsafe:      "sprintf",
		UnsafeProto: "char *sprintf(char *str, const char *format, ...);",
		Alternatives: []Alternative{
			{Name: "g_snprintf", Library: "glib", Signature: "gint g_snprintf(gchar *string, gulong n, gchar const *format, ...);"},
			{Name: "asprintf", Library: "libmib", Signature: "int asprintf(char **ppsz, const char *format, ...);"},
			{Name: "sprintf_s", Library: "ISO/IEC TR 24731 / SafeCRT", Signature: "int sprintf_s(char *str, rsize_t str_size, const char *format, ...);"},
		},
	},
	{
		Unsafe:      "snprintf",
		UnsafeProto: "int snprintf(char *str, size_t size, const char *format, ...);",
		Alternatives: []Alternative{
			{Name: "g_snprintf", Library: "glib", Signature: "gint g_snprintf(gchar *string, gulong n, gchar const *format, ...);"},
		},
	},
}
