package scanner

import (
	"bytes"
	"go/ast"

	"profipy/internal/pattern"
)

// FreshSnippet renders stmt without the scan's memo: go/printer, then
// the snippet cut.
func FreshSnippet(pf *ParsedFile, stmt ast.Stmt) string {
	var buf bytes.Buffer
	pattern.PrintNode(&buf, pf.Fset, stmt)
	return truncateSnippet(buf.Bytes(), snippetMax)
}
