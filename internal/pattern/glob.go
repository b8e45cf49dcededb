package pattern

import "strings"

// Glob reports whether s matches the glob pattern pat. The pattern
// supports '*' (any run of characters, including empty) and '?' (exactly
// one character); all other characters match literally. Matching is
// case-sensitive, mirroring identifier matching in the target language.
func Glob(pat, s string) bool {
	// Iterative glob with single-star backtracking: O(len(s)*len(pat)).
	var (
		pi, si         int
		starPi, starSi = -1, 0
	)
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '?' || pat[pi] == s[si]):
			pi++
			si++
		case pi < len(pat) && pat[pi] == '*':
			starPi, starSi = pi, si
			pi++
		case starPi >= 0:
			starSi++
			pi, si = starPi+1, starSi
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '*' {
		pi++
	}
	return pi == len(pat)
}

// GlobAny reports whether s matches any of the comma-separated glob
// alternatives in pat (e.g. "delete_*,remove_*").
func GlobAny(pat, s string) bool {
	start := 0
	for i := 0; i <= len(pat); i++ {
		if i == len(pat) || pat[i] == ',' {
			if Glob(pat[start:i], s) {
				return true
			}
			start = i + 1
		}
	}
	return false
}

// globSet is a comma-separated glob list split and classified once, when
// the model is built: a "*" alternative makes the set match everything,
// an alternative without metacharacters is compared with ==, the rest go
// through Glob. A nil set is an absent attribute and matches everything.
type globSet struct {
	any   bool
	lits  []string
	globs []string
}

func compileGlobs(pat string) *globSet {
	g := &globSet{}
	for _, alt := range strings.Split(pat, ",") {
		switch {
		case alt == "*":
			g.any = true
		case strings.ContainsAny(alt, "*?"):
			g.globs = append(g.globs, alt)
		default:
			g.lits = append(g.lits, alt)
		}
	}
	return g
}

// literal returns the one string the set matches, or "" when it matches
// several, a pattern or, being nil, everything.
func (g *globSet) literal() string {
	if g == nil || g.any || len(g.globs) != 0 || len(g.lits) != 1 {
		return ""
	}
	return g.lits[0]
}

// all reports whether the set accepts every string.
func (g *globSet) all() bool { return g == nil || g.any }

func (g *globSet) match(s string) bool {
	if g.all() {
		return true
	}
	for _, l := range g.lits {
		if l == s {
			return true
		}
	}
	for _, p := range g.globs {
		if Glob(p, s) {
			return true
		}
	}
	return false
}
