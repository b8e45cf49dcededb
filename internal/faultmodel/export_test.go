package faultmodel

import "encoding/json"

// Save serializes the model to JSON (the format users save and import
// across campaigns).
func (m *Model) Save() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}
