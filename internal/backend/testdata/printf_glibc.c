/* printf_glibc.c writes the printf table that internal/backend's renderer
 * is checked against: one row per (conversion spec, argument) with the C
 * library's exact snprintf output. It is run once on a machine with a C
 * compiler; tests read the committed table and need no compiler.
 *
 *   gcc -O0 -o /tmp/printf_glibc internal/backend/testdata/printf_glibc.c
 *   /tmp/printf_glibc > internal/backend/testdata/printf_glibc.tsv
 *
 * Row format, tab-separated: spec (the text after '%'), kind (i integer,
 * c char, s string, f double, p pointer), value, and the output as a
 * double-quoted string with \\, \" and \xHH escapes. An integer's value is
 * the promoted argument as the length modifier's type passes it, read as a
 * signed 64-bit number; a double's is %.17g; a pointer's is its address.
 *
 * The sweep crosses flags (none - + space # 0), widths (none 5 12) and
 * precisions (none .0 .3) with each conversion. Shapes C leaves undefined
 * are left out: # with d i u c s, 0 with c s, a precision with c and p,
 * and length modifiers other than none with c s f g e p.
 */
#include <gnu/libc-version.h>
#include <stdio.h>
#include <string.h>
#include <sys/types.h>

static const char *flags[] = {"", "-", "+", " ", "#", "0"};
static const char *widths[] = {"", "5", "12"};
static const char *precs[] = {"", ".0", ".3"};

static void quote(const char *s, int n) {
	putchar('"');
	for (int i = 0; i < n; i++) {
		unsigned char c = (unsigned char)s[i];
		if (c == '\\' || c == '"')
			printf("\\%c", c);
		else if (c < 0x20 || c >= 0x7f)
			printf("\\x%02x", c);
		else
			putchar(c);
	}
	putchar('"');
}

static void row(const char *spec, char kind, const char *value, const char *out, int n) {
	printf("%s\t%c\t%s\t", spec, kind, value);
	quote(out, n);
	putchar('\n');
}

static int undefined(const char *flag, const char *prec, char conv) {
	if (strchr("diucs", conv) && strcmp(flag, "#") == 0)
		return 1;
	if (strchr("csp", conv) && strcmp(flag, "0") == 0)
		return 1;
	if (strchr("cp", conv) && prec[0] != 0)
		return 1;
	return 0;
}

static void ints(void) {
	static const char *lengths[] = {"", "hh", "h", "l", "z"};
	static const long long values[] = {0, 7, 255, -1, 65535, 2147483647, -2147483647 - 1, 4294967296LL};
	static const char convs[] = "diuxXo";
	char fmt[40], spec[32], val[32], out[256];
	for (const char *cv = convs; *cv; cv++)
		for (size_t fl = 0; fl < sizeof flags / sizeof *flags; fl++)
			for (size_t w = 0; w < sizeof widths / sizeof *widths; w++)
				for (size_t p = 0; p < sizeof precs / sizeof *precs; p++)
					for (size_t l = 0; l < sizeof lengths / sizeof *lengths; l++) {
						if (undefined(flags[fl], precs[p], *cv))
							continue;
						snprintf(spec, sizeof spec, "%s%s%s%s%c", flags[fl], widths[w], precs[p], lengths[l], *cv);
						snprintf(fmt, sizeof fmt, "%%%s", spec);
						int sgn = *cv == 'd' || *cv == 'i';
						for (size_t k = 0; k < sizeof values / sizeof *values; k++) {
							long long v = values[k], promoted;
							int n;
							switch (lengths[l][0]) {
							case 'l':
								promoted = (long)v;
								n = sgn ? snprintf(out, sizeof out, fmt, (long)v)
									: snprintf(out, sizeof out, fmt, (unsigned long)v);
								break;
							case 'z':
								promoted = (long long)(ssize_t)v;
								n = sgn ? snprintf(out, sizeof out, fmt, (ssize_t)v)
									: snprintf(out, sizeof out, fmt, (size_t)v);
								break;
							default:
								promoted = sgn ? (long long)(int)v : (long long)(unsigned)v;
								n = sgn ? snprintf(out, sizeof out, fmt, (int)v)
									: snprintf(out, sizeof out, fmt, (unsigned)v);
							}
							snprintf(val, sizeof val, "%lld", promoted);
							row(spec, 'i', val, out, n);
						}
					}
}

static void chars(void) {
	static const int values[] = {'A', '0', ' ', 0, 255, -1};
	char fmt[40], spec[32], val[32], out[256];
	for (size_t fl = 0; fl < sizeof flags / sizeof *flags; fl++)
		for (size_t w = 0; w < sizeof widths / sizeof *widths; w++) {
			if (undefined(flags[fl], "", 'c'))
				continue;
			snprintf(spec, sizeof spec, "%s%sc", flags[fl], widths[w]);
			snprintf(fmt, sizeof fmt, "%%%s", spec);
			for (size_t k = 0; k < sizeof values / sizeof *values; k++) {
				int n = snprintf(out, sizeof out, fmt, values[k]);
				snprintf(val, sizeof val, "%d", values[k]);
				row(spec, 'c', val, out, n);
			}
		}
}

static void strs(void) {
	static const char *values[] = {"", "a", "hello", "hello, world", "100%"};
	char fmt[40], spec[32], out[256];
	for (size_t fl = 0; fl < sizeof flags / sizeof *flags; fl++)
		for (size_t w = 0; w < sizeof widths / sizeof *widths; w++)
			for (size_t p = 0; p < sizeof precs / sizeof *precs; p++) {
				if (undefined(flags[fl], precs[p], 's'))
					continue;
				snprintf(spec, sizeof spec, "%s%s%ss", flags[fl], widths[w], precs[p]);
				snprintf(fmt, sizeof fmt, "%%%s", spec);
				for (size_t k = 0; k < sizeof values / sizeof *values; k++) {
					int n = snprintf(out, sizeof out, fmt, values[k]);
					printf("%s\ts\t", spec);
					quote(values[k], (int)strlen(values[k]));
					putchar('\t');
					quote(out, n);
					putchar('\n');
				}
			}
}

static void floats(void) {
	static const double values[] = {
		0.0, -0.0, 0.5, 1.5, 2.5, -2.25, 0.1, 3.14159265358979, 1e-5,
		0.0001, 100000.0, 1234567.0, 123456789.0, 1e20, -1e-300,
		1.0 / 0.0, -1.0 / 0.0, 0.0 / 0.0,
	};
	static const char convs[] = "fge";
	char fmt[40], spec[32], val[64], out[512];
	for (const char *cv = convs; *cv; cv++)
		for (size_t fl = 0; fl < sizeof flags / sizeof *flags; fl++)
			for (size_t w = 0; w < sizeof widths / sizeof *widths; w++)
				for (size_t p = 0; p < sizeof precs / sizeof *precs; p++) {
					snprintf(spec, sizeof spec, "%s%s%s%c", flags[fl], widths[w], precs[p], *cv);
					snprintf(fmt, sizeof fmt, "%%%s", spec);
					for (size_t k = 0; k < sizeof values / sizeof *values; k++) {
						int n = snprintf(out, sizeof out, fmt, values[k]);
						snprintf(val, sizeof val, "%.17g", values[k]);
						row(spec, 'f', val, out, n);
					}
				}
}

static void pointers(void) {
	static const unsigned long values[] = {0, 1, 0x1234, 0x7fffffffffffUL, 0xffffffffffffffffUL};
	static const char *pflags[] = {"", "-"};
	static const char *pwidths[] = {"", "5", "20"};
	char fmt[40], spec[32], val[32], out[256];
	for (size_t fl = 0; fl < sizeof pflags / sizeof *pflags; fl++)
		for (size_t w = 0; w < sizeof pwidths / sizeof *pwidths; w++) {
			snprintf(spec, sizeof spec, "%s%sp", pflags[fl], pwidths[w]);
			snprintf(fmt, sizeof fmt, "%%%s", spec);
			for (size_t k = 0; k < sizeof values / sizeof *values; k++) {
				int n = snprintf(out, sizeof out, fmt, (void *)values[k]);
				snprintf(val, sizeof val, "%lld", (long long)values[k]);
				row(spec, 'p', val, out, n);
			}
		}
}

int main(void) {
	printf("# printf table: glibc %s snprintf, written by printf_glibc.c\n", gnu_get_libc_version());
	ints();
	chars();
	strs();
	floats();
	pointers();
	return 0;
}
