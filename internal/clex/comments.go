package clex

import (
	"strings"

	"repro/internal/ctoken"
)

// MaskComments returns src with every comment replaced by a single
// space. Tokenization is the real lexer's, so comment markers inside
// string and character literals are left alone. Inputs that fail to lex
// are returned unchanged — callers use this for fingerprinting and
// diagnostic spellings, where the raw text is the correct fallback.
//
// The incremental layer leans on this in two places: dependency hashes
// (internal/analysis) mask comments so editing one never invalidates a
// function, and the oracles mask comments out of quoted source spellings
// so memoized findings stay byte-identical to a fresh run after such an
// edit.
func MaskComments(src string) string {
	toks, err := Tokenize(src)
	if err != nil {
		return src
	}
	var sb strings.Builder
	sb.Grow(len(src))
	cursor := 0
	for _, t := range toks {
		if t.Kind != ctoken.KindComment {
			continue
		}
		sb.WriteString(src[cursor:t.Extent.Pos])
		sb.WriteByte(' ')
		cursor = int(t.Extent.End)
	}
	sb.WriteString(src[cursor:])
	return sb.String()
}
