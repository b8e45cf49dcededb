package sandbox

import (
	"fmt"
	"math/rand"

	"profipy/internal/interp"
	"profipy/internal/lazyrand"
	"profipy/internal/mutator"
)

// HogVirtualNS is the virtual time one unit of CPU hog burns.
const HogVirtualNS = 30_000_000_000 // 30s of virtual CPU time per hog unit

// hookRun is the per-round state the fault hooks read off the
// interpreter they are called on: the container, and the round's
// corruption RNG (re-seeded from the container seed every round, and
// only on the first $CORRUPT that actually fires).
type hookRun struct {
	c   *Container
	rng *rand.Rand
}

type hookRunKey struct{}

func hookState(it *interp.Interp) *hookRun {
	return it.HostData(hookRunKey{}).(*hookRun)
}

// InstallHooks binds the fault-injection runtime hooks of an interpreter
// (one workload round) to a container. These are the functions the
// mutator's replacement templates call: the trigger, string corruption,
// CPU hogs, delays, exception construction, coverage and component logs.
// The hook functions themselves are shared by every interpreter; an
// install only records which container this round's calls act on.
func InstallHooks(it *interp.Interp, c *Container) {
	it.SetHostData(hookRunKey{}, &hookRun{c: c, rng: lazyrand.New(c.Seed())})
	it.Install(hooksEnv)
}

// hooksEnv is the shared hook table.
var hooksEnv = newHooksEnv()

func newHooksEnv() *interp.HostEnv {
	env := interp.NewHostEnv()

	env.Func(mutator.HookTrigger, func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		return hookState(it).c.TriggerEnabled(), nil
	})

	env.Func(mutator.HookCorrupt, func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("__corrupt takes one argument")
		}
		return Corrupt(hookState(it).rng, args[0]), nil
	})

	env.Func(mutator.HookHog, func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		amount := int64(1)
		if len(args) >= 2 {
			if n, ok := args[1].(int64); ok && n > 0 {
				amount = n
			}
		}
		hookState(it).c.AddContention(int(amount))
		it.AdvanceClock(amount * HogVirtualNS)
		return nil, nil
	})

	env.Func(mutator.HookDelay, func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		ms := int64(1000)
		if len(args) >= 1 {
			if n, ok := args[0].(int64); ok && n >= 0 {
				ms = n
			}
		}
		it.AdvanceClock(ms * 1_000_000)
		return nil, nil
	})

	env.Func(mutator.HookExc, func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		excType, msg := "Error", "injected fault"
		if len(args) >= 1 {
			if s, ok := args[0].(string); ok {
				excType = s
			}
		}
		if len(args) >= 2 {
			if s, ok := args[1].(string); ok {
				msg = s
			}
		}
		return &interp.Exc{Type: excType, Msg: msg}, nil
	})

	env.Func(mutator.HookCover, func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		if len(args) == 1 {
			if id, ok := args[0].(string); ok {
				hookState(it).c.MarkCovered(id)
			}
		}
		return nil, nil
	})

	env.Func("__log", func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		if len(args) < 2 {
			return nil, fmt.Errorf("__log takes component and message")
		}
		comp, _ := args[0].(string)
		fmt.Fprintf(hookState(it).c.Log(comp), "%s\n", interp.Repr(args[1]))
		return nil, nil
	})

	return env
}

// Corrupt produces a deterministic corrupted variant of a value, the
// semantics of the $CORRUPT directive: strings get characters replaced
// with random contents (sometimes non-ASCII, which the kvstore rejects
// with 400 Bad Request); ints become random negatives; bools flip;
// nil stays nil.
func Corrupt(rng *rand.Rand, v interp.Value) interp.Value {
	switch x := v.(type) {
	case string:
		return corruptString(rng, x)
	case int64:
		return -(rng.Int63n(1 << 30)) - 1
	case float64:
		return -x - 1
	case bool:
		return !x
	case *interp.List:
		if len(x.Elems) == 0 {
			return x
		}
		out := interp.NewList(append([]interp.Value(nil), x.Elems...)...)
		i := rng.Intn(len(out.Elems))
		out.Elems[i] = Corrupt(rng, out.Elems[i])
		return out
	default:
		return nil
	}
}

func corruptString(rng *rand.Rand, s string) string {
	if s == "" {
		return string(rune(0x80 + rng.Intn(0x40)))
	}
	b := []byte(s)
	// Replace roughly half of the characters with random contents; with
	// probability 1/6 one of them is non-ASCII (which the kvstore
	// rejects as 400 Bad Request).
	for i := range b {
		if rng.Intn(2) == 0 {
			b[i] = byte('!' + rng.Intn(90))
		}
	}
	if rng.Intn(6) == 0 {
		b[rng.Intn(len(b))] = byte(0x80 + rng.Intn(0x7f))
	}
	return string(b)
}
