package pattern

import "go/ast"

// LeadAdmits exposes the model's lead anchor to the external tests: does
// it admit the statement, and is it the follower of a leading block
// rather than the head's own.
func (m *MetaModel) LeadAdmits(s ast.Stmt) (admits, blockLed bool) {
	lead, blockLed := m.lead()
	return lead.admits(s), blockLed
}
