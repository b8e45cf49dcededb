// Package dsl implements the ProFIPy fault-injection domain-specific
// language: `change { <code pattern> } into { <code replacement> }` blocks
// mixing target-language (Go) code fragments with $DIRECTIVES.
//
// Compilation happens in two stages. The pre-processor rewrites every
// directive occurrence ($CALL{name=Execute}#c(...), $BLOCK{stmts=1,4}, ...)
// into a unique placeholder identifier (__dsl_N) and records a directive
// descriptor for it; the resulting text is plain Go syntax, which the
// standard go/parser turns into the meta-model ASTs.
package dsl

import (
	"fmt"
	"strconv"
	"strings"

	"profipy/internal/pattern"
)

// preprocessor rewrites DSL directives in a code fragment into placeholder
// identifiers, accumulating the directive table shared by the pattern and
// replacement sections of a spec.
type preprocessor struct {
	holes map[string]*pattern.Directive
	next  int
}

func newPreprocessor() *preprocessor {
	return &preprocessor{holes: make(map[string]*pattern.Directive)}
}

// holeName is the placeholder identifier of the n-th directive of a spec.
func holeName(n int) string { return "__dsl_" + strconv.Itoa(n) }

func (p *preprocessor) fresh(d *pattern.Directive) string {
	name := holeName(p.next)
	p.next++
	p.holes[name] = d
	return name
}

// argPiece is a raw argument fragment of a directive's parenthesised
// argument list: either the literal ellipsis "..." or pre-processed Go
// expression text.
type argPiece struct {
	ellipsis bool
	text     string
}

// rewrite substitutes all directives in src and returns Go-parseable text.
func (p *preprocessor) rewrite(src string) (string, error) {
	var out strings.Builder
	i := 0
	for i < len(src) {
		c := src[i]
		switch c {
		case '"', '`', '\'':
			end, err := skipString(src, i)
			if err != nil {
				return "", err
			}
			out.WriteString(src[i:end])
			i = end
		case '/':
			if i+1 < len(src) && src[i+1] == '/' {
				end := strings.IndexByte(src[i:], '\n')
				if end < 0 {
					end = len(src) - i
				}
				out.WriteString(src[i : i+end])
				i += end
			} else {
				out.WriteByte(c)
				i++
			}
		case '$':
			name, rest, ok := scanDirectiveName(src, i+1)
			if !ok {
				return "", fmt.Errorf("dsl: stray '$' at offset %d (expected directive name)", i)
			}
			kind, known := pattern.KindByName(name)
			if !known {
				return "", fmt.Errorf("dsl: unknown directive $%s at offset %d", name, i)
			}
			placeholder, end, err := p.consumeDirective(src, rest, kind)
			if err != nil {
				return "", err
			}
			out.WriteString(placeholder)
			i = end
		default:
			out.WriteByte(c)
			i++
		}
	}
	return out.String(), nil
}

// consumeDirective parses the tag / attribute / argument suffix of a
// directive whose name ended at offset `at`, registers the directive, and
// returns the placeholder text plus the offset after the construct.
func (p *preprocessor) consumeDirective(src string, at int, kind pattern.Kind) (string, int, error) {
	d := &pattern.Directive{Kind: kind, Attrs: map[string]string{}, MinStmts: 1, MaxStmts: -1}
	i := at
	seenAttrs, seenTag := false, false
	for i < len(src) {
		switch src[i] {
		case '#':
			if seenTag {
				return "", 0, fmt.Errorf("dsl: duplicate tag on $%s at offset %d", kind, i)
			}
			tag, end, ok := scanIdent(src, i+1)
			if !ok {
				return "", 0, fmt.Errorf("dsl: missing tag name after '#' at offset %d", i)
			}
			d.Tag = tag
			seenTag = true
			i = end
			continue
		case '{':
			if seenAttrs {
				return "", 0, fmt.Errorf("dsl: duplicate attribute block on $%s at offset %d", kind, i)
			}
			end, err := p.parseAttrs(src, i, d)
			if err != nil {
				return "", 0, err
			}
			seenAttrs = true
			i = end
			continue
		}
		break
	}
	if tag, ok := d.Attrs["tag"]; ok {
		if d.Tag != "" && d.Tag != tag {
			return "", 0, fmt.Errorf("dsl: conflicting tags %q and %q on $%s", d.Tag, tag, kind)
		}
		d.Tag = tag
	}
	if takesArgs(kind) && i < len(src) && src[i] == '(' {
		pieces, end, err := splitArgs(src, i)
		if err != nil {
			return "", 0, err
		}
		d.HasArgs = true
		for _, piece := range pieces {
			if piece.ellipsis {
				d.Args = append(d.Args, pattern.ArgPat{Ellipsis: true})
				continue
			}
			text, err := p.rewrite(piece.text)
			if err != nil {
				return "", 0, err
			}
			// Expr is attached after the Go parse; stash the text in Attrs
			// under a reserved key consumed by the compiler.
			d.Args = append(d.Args, pattern.ArgPat{})
			d.Attrs["__arg"+strconv.Itoa(len(d.Args)-1)] = text
		}
		i = end
	}
	if kind == pattern.KindBlock {
		if err := parseStmtsAttr(d); err != nil {
			return "", 0, err
		}
	}
	name := p.fresh(d)
	if takesArgs(kind) {
		// Call-like directives are emitted as zero-argument calls so
		// they parse in call-only syntax positions (defer, go).
		name += "()"
	}
	return name, i, nil
}

// parseAttrs parses a `{k=v; k=v}` attribute block starting at src[open]=='{'.
func (p *preprocessor) parseAttrs(src string, open int, d *pattern.Directive) (int, error) {
	end := strings.IndexByte(src[open:], '}')
	if end < 0 {
		return 0, fmt.Errorf("dsl: unterminated attribute block at offset %d", open)
	}
	body := src[open+1 : open+end]
	for _, kv := range strings.Split(body, ";") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return 0, fmt.Errorf("dsl: malformed attribute %q (expected key=value)", kv)
		}
		key := strings.TrimSpace(kv[:eq])
		val := strings.TrimSpace(kv[eq+1:])
		if key == "" {
			return 0, fmt.Errorf("dsl: empty attribute key in %q", kv)
		}
		d.Attrs[key] = val
	}
	return open + end + 1, nil
}

// parseStmtsAttr decodes a $BLOCK's stmts=min,max attribute.
func parseStmtsAttr(d *pattern.Directive) error {
	spec, ok := d.Attrs["stmts"]
	if !ok {
		return nil
	}
	lo, hi, found := strings.Cut(spec, ",")
	minStmts, err := strconv.Atoi(strings.TrimSpace(lo))
	if err != nil || minStmts < 0 {
		return fmt.Errorf("dsl: bad stmts attribute %q", spec)
	}
	d.MinStmts = minStmts
	if !found {
		d.MaxStmts = minStmts
		return nil
	}
	hi = strings.TrimSpace(hi)
	if hi == "*" {
		d.MaxStmts = -1
		return nil
	}
	maxStmts, err := strconv.Atoi(hi)
	if err != nil || maxStmts < minStmts {
		return fmt.Errorf("dsl: bad stmts attribute %q", spec)
	}
	d.MaxStmts = maxStmts
	return nil
}

// takesArgs reports whether a directive kind consumes a following
// parenthesised argument list.
func takesArgs(k pattern.Kind) bool {
	switch k {
	case pattern.KindCall, pattern.KindCorrupt, pattern.KindHog, pattern.KindTimeout, pattern.KindPanic:
		return true
	}
	return false
}

// splitArgs splits a balanced parenthesised argument list starting at
// src[open]=='(' into top-level comma-separated pieces.
func splitArgs(src string, open int) ([]argPiece, int, error) {
	depth := 0
	var pieces []argPiece
	start := open + 1
	flush := func(end int) {
		text := strings.TrimSpace(src[start:end])
		if text == "" {
			return
		}
		pieces = append(pieces, argPiece{ellipsis: text == "...", text: text})
	}
	i := open
	for i < len(src) {
		switch src[i] {
		case '"', '`', '\'':
			end, err := skipString(src, i)
			if err != nil {
				return nil, 0, err
			}
			i = end
			continue
		case '(', '[', '{':
			depth++
		case ']', '}':
			depth--
		case ')':
			depth--
			if depth == 0 {
				flush(i)
				return pieces, i + 1, nil
			}
		case ',':
			if depth == 1 {
				flush(i)
				start = i + 1
			}
		}
		i++
	}
	return nil, 0, fmt.Errorf("dsl: unterminated argument list at offset %d", open)
}

// scanDirectiveName reads an upper-case directive name starting at `at`.
func scanDirectiveName(src string, at int) (string, int, bool) {
	i := at
	for i < len(src) && src[i] >= 'A' && src[i] <= 'Z' {
		i++
	}
	if i == at {
		return "", at, false
	}
	return src[at:i], i, true
}

// scanIdent reads a Go-style identifier starting at `at`.
func scanIdent(src string, at int) (string, int, bool) {
	i := at
	for i < len(src) {
		c := src[i]
		if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > at && c >= '0' && c <= '9' {
			i++
			continue
		}
		break
	}
	if i == at {
		return "", at, false
	}
	return src[at:i], i, true
}

// skipString advances past a Go string/rune literal beginning at src[at].
func skipString(src string, at int) (int, error) {
	quote := src[at]
	i := at + 1
	for i < len(src) {
		switch src[i] {
		case '\\':
			if quote != '`' {
				i++ // skip escaped char
			}
		case quote:
			return i + 1, nil
		}
		i++
	}
	return 0, fmt.Errorf("dsl: unterminated string literal at offset %d", at)
}
