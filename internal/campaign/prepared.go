package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"

	"profipy/internal/interp"
	"profipy/internal/scanner"
	"profipy/internal/workload"
)

// Prepared is a project made ready to run campaigns on: its files, the
// parse cache over the scanned subset and the compiled base program.
// All three are immutable once built (the parse cache fills lazily
// under its own lock) and safe to share across goroutines, so every
// campaign over the same project — whatever its faultload, seed or
// executor — can run on one Prepared.
type Prepared struct {
	digest string
	files  map[string][]byte
	cache  *scanner.ProjectCache
	// prog is nil until the compile phase succeeded; only then is the
	// value offered to a PreparedSet, so a shared Prepared always has it.
	prog *interp.Program
}

// Bounds of a PreparedSet. A parsed and compiled project weighs some
// tens of times its source text, so the set is bounded by source bytes
// as well as by count; a project over the byte bound on its own is
// prepared per campaign and never retained.
const (
	maxPrepared      = 4
	maxPreparedBytes = 4 << 20
)

// Outcomes of looking a campaign's project up in its PreparedSet, as
// counted by profipy_campaign_prepared_total and reported by
// Runner.Prepared.
const (
	PreparedHit      = "hit"       // borrowed: nothing parsed or compiled
	PreparedMiss     = "miss"      // prepared here and retained
	PreparedTooLarge = "too_large" // prepared here, over the byte bound
)

// PreparedSet keeps the most recently used prepared projects of one
// process, keyed by ProjectDigest. Its owner (a worker agent, the SaaS
// server) hands it to campaigns through Campaign.Prepared; a nil set is
// valid and holds nothing.
type PreparedSet struct {
	mu      sync.Mutex
	entries []*Prepared // least recently used first
}

// ProjectDigest fingerprints what a Prepared is built from: every file
// (name and content, in name order), the scanned subset and the
// workload's load order. Equal digests mean interchangeable parses and
// base programs.
func ProjectDigest(files map[string][]byte, scanFiles, workloadFiles []string) string {
	h := sha256.New()
	names := scanner.SortedNames(files)
	// Quoted names and length-prefixed contents: no two inputs
	// concatenate alike.
	fmt.Fprintf(h, "%q %q %q\n", names, scanFiles, workloadFiles)
	for _, name := range names {
		fmt.Fprintf(h, "%d:", len(files[name]))
		h.Write(files[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Digests lists the projects the set holds, for a worker to name when
// it asks for a campaign spec.
func (s *PreparedSet) Digests() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.entries))
	for i, p := range s.entries {
		out[i] = p.digest
	}
	return out
}

// Files returns the file set of a held project — what a worker
// completes a spec with whose files the control plane left out.
func (s *PreparedSet) Files(digest string) (map[string][]byte, bool) {
	if p := s.get(digest); p != nil {
		return p.files, true
	}
	return nil, false
}

// get returns the held project with the digest, marking it most
// recently used, or nil.
func (s *PreparedSet) get(digest string) *Prepared {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, p := range s.entries {
		if p.digest == digest {
			copy(s.entries[i:], s.entries[i+1:])
			s.entries[len(s.entries)-1] = p
			return p
		}
	}
	return nil
}

// put retains a freshly prepared project as most recently used and
// evicts from the least recently used end until both bounds hold.
func (s *PreparedSet) put(p *Prepared) string {
	if sourceBytes(p) > maxPreparedBytes {
		return PreparedTooLarge
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, q := range s.entries {
		if q.digest == p.digest { // a concurrent campaign prepared it too
			return PreparedMiss
		}
	}
	s.entries = append(s.entries, p)
	for len(s.entries) > maxPrepared || sourceBytes(s.entries...) > maxPreparedBytes {
		s.entries = slices.Delete(s.entries, 0, 1)
	}
	return PreparedMiss
}

func sourceBytes(ps ...*Prepared) int {
	n := 0
	for _, p := range ps {
		for _, src := range p.files {
			n += len(src)
		}
	}
	return n
}

// project returns the campaign's project: the one c.Prepared holds
// under its digest, or a fresh one with nothing parsed or compiled yet.
func (c *Campaign) project() *Prepared {
	digest := ""
	if c.Prepared != nil {
		digest = ProjectDigest(c.Files, c.ScanFiles, c.Workload.Files)
		if p := c.Prepared.get(digest); p != nil {
			return p
		}
	}
	return &Prepared{digest: digest, files: c.Files, cache: scanner.NewProjectCache(c.scanSubset())}
}

// baseWorkload returns the campaign's workload config running the project's
// compiled base program — behind derivation counters of this campaign's
// own — and counting into c.Metrics unless it names a registry, and how
// it came by the program ("" without a PreparedSet). A fresh project is
// compiled here and, having compiled, offered to c.Prepared: a failure
// is never retained.
func (c *Campaign) baseWorkload(p *Prepared, met *cmetrics) (workload.Config, string, error) {
	wcfg := c.Workload
	if wcfg.Metrics == nil {
		wcfg.Metrics = c.Metrics
	}
	result := PreparedHit
	if p.prog == nil {
		prog, err := c.compileBase(p.cache)
		if err != nil {
			return wcfg, "", err
		}
		p.prog = prog
		if c.Prepared == nil {
			wcfg.Program = prog
			return wcfg, "", nil
		}
		result = c.Prepared.put(p)
	}
	met.prepares.With(result).Inc()
	wcfg.Program = p.prog.Counted()
	return wcfg, result, nil
}
