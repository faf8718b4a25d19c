package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cinterp"
	"repro/internal/cparse"
	"repro/internal/harness"
	"repro/internal/stralloc"
	"repro/internal/typecheck"
)

// rq3Source builds a workload program with the given iteration count
// baked in.
func rq3Source(kind string, iters int) string {
	switch kind {
	case "zlib":
		// minigzip-like: per file, build names with sprintf/strcpy/strcat,
		// fill and checksum a data block.
		return fmt.Sprintf(`
static unsigned long total_checksum = 0;

void process_file(int id) {
    char name[64];
    char outfile[64];
    char data[256];
    int i;
    sprintf(name, "file%%d.txt", id);
    strcpy(outfile, name);
    strcat(outfile, ".gz");
    for (i = 0; i < 200; i++) {
        data[i] = i + id;
    }
    data[200] = '\0';
    for (i = 0; i < 200; i++) {
        total_checksum = total_checksum * 31 + data[i];
    }
    total_checksum = total_checksum + strlen(outfile);
}

int main(void) {
    int k;
    for (k = 0; k < %d; k++) {
        process_file(k);
    }
    printf("%%lu\n", total_checksum);
    return 0;
}
`, iters)
	default: // libpng-like: row filtering with memcpy + message formatting
		return fmt.Sprintf(`
static unsigned long row_hash = 0;

void filter_row(int rowno) {
    char row[128];
    char prev[128];
    char msg[48];
    int i;
    for (i = 0; i < 127; i++) {
        prev[i] = i * 3 + rowno;
    }
    prev[127] = '\0';
    memcpy(row, prev, 127);
    row[127] = '\0';
    for (i = 1; i < 127; i++) {
        row[i] = row[i] + row[i - 1];
    }
    for (i = 0; i < 127; i++) {
        row_hash = row_hash * 17 + row[i];
    }
    sprintf(msg, "row %%d done", rowno);
    row_hash = row_hash + strlen(msg);
}

int main(void) {
    int r;
    for (r = 0; r < %d; r++) {
        filter_row(r);
    }
    printf("%%lu\n", row_hash);
    return 0;
}
`, iters)
	}
}

// RQ3Row reports one (workload, variant) measurement.
type RQ3Row struct {
	Workload string
	Variant  string // original | SLR | SLR+STR
	Steps    int64
	Wall     time.Duration
	Output   string
	// OverheadPct is relative to the original variant (0 for original).
	OverheadPct float64
}

// RunRQ3 measures interpreter steps and wall time for the original,
// SLR-transformed and SLR+STR-transformed variants of both workloads.
// Steps count interpreted statements/expressions — the analog of executed
// instructions, independent of host noise; wall time is reported
// alongside.
func RunRQ3(iters int) ([]RQ3Row, error) {
	if iters <= 0 {
		iters = 200
	}
	var rows []RQ3Row
	for _, kind := range []string{"zlib", "libpng"} {
		source := rq3Source(kind, iters)

		slrOnly, err := harness.Transform(kind, source, harness.Options{SkipSTR: true}, nil)
		if err != nil {
			return nil, err
		}
		both, err := harness.Transform(kind, source, harness.Options{}, nil)
		if err != nil {
			return nil, err
		}

		variants := []struct {
			name string
			src  string
		}{
			{"original", source},
			{"SLR", slrOnly},
			{"SLR+STR", both},
		}
		var base *RQ3Row
		for _, v := range variants {
			row, err := measure(kind, v.name, v.src)
			if err != nil {
				return nil, err
			}
			if v.name == "original" {
				base = row
			} else if base != nil && base.Steps > 0 {
				row.OverheadPct = 100 * float64(row.Steps-base.Steps) / float64(base.Steps)
			}
			rows = append(rows, *row)
		}
		// Behavior check: the transformed workloads must print the same
		// result.
		if len(rows) >= 3 {
			n := len(rows)
			if rows[n-1].Output != rows[n-3].Output || rows[n-2].Output != rows[n-3].Output {
				return nil, fmt.Errorf("experiments: %s outputs diverged: %q / %q / %q",
					kind, rows[n-3].Output, rows[n-2].Output, rows[n-1].Output)
			}
		}
	}
	return rows, nil
}

// measure runs one variant (native stralloc builtins; the C library
// implementation is not linked in so both sides use native code, matching
// the paper's compiled-binary timings).
func measure(workload, variant, source string) (*RQ3Row, error) {
	if strings.Contains(source, "stralloc") {
		// The typedef is needed to parse; execution uses the native
		// stralloc builtins.
		source = stralloc.Header() + "\n" + source
	}
	unit, err := cparse.Parse(workload+"_"+variant+".c", source)
	if err != nil {
		return nil, fmt.Errorf("experiments: parse %s/%s: %w", workload, variant, err)
	}
	typecheck.Check(unit)
	in, err := cinterp.New(unit, cinterp.Limits{MaxSteps: 500_000_000})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := in.Run("main")
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("experiments: run %s/%s: %w", workload, variant, err)
	}
	if res.HasViolations() {
		return nil, fmt.Errorf("experiments: %s/%s raised violations: %v",
			workload, variant, res.Violations[0])
	}
	return &RQ3Row{
		Workload: workload,
		Variant:  variant,
		Steps:    in.Steps(),
		Wall:     wall,
		Output:   res.Stdout,
	}, nil
}

// FormatRQ3 renders the overhead table.
func FormatRQ3(rows []RQ3Row) string {
	var sb strings.Builder
	sb.WriteString("RQ3: Effect on Performance (interpreted steps; wall time informational)\n")
	sb.WriteString(fmt.Sprintf("%-10s %-10s %14s %12s %10s\n",
		"Workload", "Variant", "Steps", "Wall", "Overhead"))
	for _, r := range rows {
		over := "-"
		if r.Variant != "original" {
			over = fmt.Sprintf("%+.1f%%", r.OverheadPct)
		}
		sb.WriteString(fmt.Sprintf("%-10s %-10s %14d %12s %10s\n",
			r.Workload, r.Variant, r.Steps, r.Wall.Round(time.Microsecond), over))
	}
	sb.WriteString("\nPaper: the modified programs had minimal performance overhead.\n")
	return sb.String()
}
