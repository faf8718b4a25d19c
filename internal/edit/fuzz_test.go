package edit

import (
	"testing"

	"repro/internal/ctoken"
	"repro/internal/samate"
)

// decodeDeltas turns fuzzer bytes into a bounded delta list against a
// text of n bytes. Extents are always in bounds; overlap is left to the
// fuzzer so the validator's rejection path gets exercised too.
func decodeDeltas(data []byte, n int) []Delta {
	var out []Delta
	for len(data) >= 5 && len(out) < 16 {
		op := data[0] % 3
		pos := (int(data[1])<<8 | int(data[2])) % (n + 1)
		span := int(data[3]) % (n - pos + 1)
		tlen := int(data[4]) % 8
		if tlen > len(data)-5 {
			tlen = len(data) - 5
		}
		text := string(data[5 : 5+tlen])
		data = data[5+tlen:]
		e := ctoken.Extent{Pos: ctoken.Pos(pos), End: ctoken.Pos(pos + span)}
		switch op {
		case 0:
			out = append(out, Insert(ctoken.Pos(pos), text))
		case 1:
			out = append(out, Delta{Extent: e})
		default:
			out = append(out, Replace(e, text))
		}
	}
	return out
}

// validSubset greedily drops deltas that overlap an earlier kept one,
// yielding a script Validate must accept.
func validSubset(deltas []Delta, n int) []Delta {
	sorted := Sort(append([]Delta(nil), deltas...))
	var out []Delta
	cursor := ctoken.Pos(0)
	for _, d := range sorted {
		if !d.Extent.IsValid() || int(d.Extent.End) > n || d.Extent.Pos < cursor {
			continue
		}
		out = append(out, d)
		if d.Extent.End > cursor {
			cursor = d.Extent.End
		}
	}
	return out
}

// referenceApply is the naive quadratic oracle: apply sorted deltas
// back-to-front with string slicing, which trivially preserves queue
// order for same-position inserts.
func referenceApply(src string, sorted []Delta) string {
	for i := len(sorted) - 1; i >= 0; i-- {
		d := sorted[i]
		src = src[:d.Extent.Pos] + d.Text + src[d.Extent.End:]
	}
	return src
}

// FuzzApply drives the splice, validator, minimizer and mapper against a
// quadratic reference implementation. Seeded like FuzzFix: real SAMATE
// programs, so the extents the fuzzer mutates look like the extents the
// transformations and the incremental session actually produce.
func FuzzApply(f *testing.F) {
	for _, cwe := range samate.CWEs {
		for _, p := range samate.Generate(cwe, 1) {
			f.Add(p.Source, []byte{2, 0, 10, 8, 4, 'x', 'y', 0, 0, 3, 2, 2, 'z'})
		}
	}
	f.Add("", []byte{0, 0, 0, 0, 1, 'a'})
	f.Add("int x;", []byte{1, 0, 0, 6, 0})
	f.Fuzz(func(t *testing.T, src string, prog []byte) {
		if len(src) > 8192 || len(prog) > 512 {
			t.Skip()
		}
		raw := decodeDeltas(prog, len(src))

		// The raw (possibly overlapping) script must never panic, and a
		// validation failure must surface from Apply identically.
		rawScript := NewScript(raw...)
		_, applyErr := rawScript.Apply(src)
		valErr := rawScript.Validate(len(src))
		if (applyErr == nil) != (valErr == nil) {
			t.Fatalf("Apply err %v vs Validate err %v", applyErr, valErr)
		}

		// A valid subset must apply and match the reference oracle.
		valid := validSubset(raw, len(src))
		s := NewScript(valid...)
		if err := s.Validate(len(src)); err != nil {
			t.Fatalf("validSubset produced invalid script: %v\ndeltas=%v", err, valid)
		}
		out, err := s.Apply(src)
		if err != nil {
			t.Fatalf("valid script failed to apply: %v", err)
		}
		if want := referenceApply(src, s.Deltas()); out != want {
			t.Fatalf("splice mismatch:\n got %q\nwant %q\ndeltas=%v", out, want, valid)
		}

		// Minimize invariant: trimming deltas to their changed bytes
		// must still validate and must not change what Apply produces.
		min := NewScript(Minimize(src, valid)...)
		if err := min.Validate(len(src)); err != nil {
			t.Fatalf("Minimize produced invalid script: %v\nraw=%v", err, valid)
		}
		if mout, err := min.Apply(src); err != nil || mout != out {
			t.Fatalf("Minimize changed Apply: err=%v\n got %q\nwant %q\nraw=%v\nmin=%v",
				err, mout, out, valid, min.Deltas())
		}

		// Mapper invariant: positions outside every replaced/deleted
		// span still address the same byte after mapping.
		m := NewMapper(s)
	pos:
		for p := 0; p < len(src); p++ {
			for _, d := range valid {
				if !d.IsInsert() && p >= int(d.Extent.Pos) && p < int(d.Extent.End) {
					continue pos
				}
			}
			np := m.mapPos(ctoken.Pos(p), true)
			if int(np) >= len(out) || out[np] != src[p] {
				t.Fatalf("mapPos(%d)=%d maps %q astray in %q\ndeltas=%v", p, np, src[p], out, valid)
			}
		}
	})
}
