package runtimefault

import (
	"math/rand"

	"profipy/internal/interp"
)

// CorruptValue produces the corrupted variant of a value under the
// given corruption mode, drawing choices from rng. nil values stay nil
// under every mode except null (which they already are); values the
// mode cannot perturb are returned unchanged.
func CorruptValue(rng *rand.Rand, mode string, v interp.Value) interp.Value {
	out, _ := corruptValue(rng, mode, v)
	return out
}
