package resultstore

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
)

// Job journal states recorded in JournalEntry.State. They mirror the
// scheduler's lifecycle; the journal is written ahead of the work
// (queued at submit, running at task start, one terminal state at
// finish), so a crashed process's journal tells the next process
// exactly which jobs still owe execution — and how the others ended.
const (
	JournalQueued   = "queued"
	JournalRunning  = "running"
	JournalDone     = "done"
	JournalFailed   = "failed"
	JournalCanceled = "canceled"
)

// JournalEntry is one write-ahead record of a campaign job's lifecycle.
// The submit-time entry carries the full serialized request in Payload,
// so recovery can rebuild the campaign with no other state surviving;
// the terminal entry carries the job's final Snapshot, so the line that
// retires the job is also its history record.
type JournalEntry struct {
	Job      string `json:"job"`
	State    string `json:"state"`
	Campaign string `json:"campaign,omitempty"`
	// Name is the job's display name (the project name), kept for the
	// history entry of a pending job that recovery has to abandon.
	Name string `json:"name,omitempty"`
	// Payload is the opaque serialized submission (the SaaS layer's
	// request plus its project file snapshot).
	Payload json.RawMessage `json:"payload,omitempty"`
	// Snapshot is the opaque final view of a finished job (what the SaaS
	// layer serves as the job), set on terminal entries only.
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
	TimeMS   int64           `json:"timeMs,omitempty"`
}

// Terminal reports whether the entry's state ends the job's lifecycle.
func (e JournalEntry) Terminal() bool { return journalRank(e.State) == 3 }

// journalRank orders states so folding is append-order independent:
// a late-arriving "queued" line can never downgrade a job the journal
// already saw running or finished. Unknown states rank 0.
func journalRank(state string) int {
	switch state {
	case JournalQueued:
		return 1
	case JournalRunning:
		return 2
	case JournalDone, JournalFailed, JournalCanceled:
		return 3
	}
	return 0
}

const (
	journalFile = "journal.jsonl"
	// legacyJobsFile is the second job log older versions kept (bare
	// terminal snapshots); Open folds it into the journal and removes it.
	legacyJobsFile = "jobs.jsonl"

	// maxJobsInMemory bounds the finished jobs the fold retains — the
	// job history the API serves, memory-only stores included — so neither
	// the map nor the compacted file grows with the daemon's age.
	maxJobsInMemory = 1024

	// The file is rewritten as its fold once the bytes appended since the
	// last rewrite exceed journalCompactFactor × the folded size (and
	// journalCompactMin, so a near-empty journal is not rewritten on every
	// append). Payloads are the only large lines and the fold drops them
	// with the job: the file stays O(pending jobs + retained history).
	journalCompactFactor = 4
	journalCompactMin    = 256 << 10
)

// AppendJournal writes one job lifecycle entry ahead of the work it
// describes. The line is fsync'd before AppendJournal returns — this is
// the store's write-ahead durability point — and folded into the
// in-memory view. Memory-only stores fold without persisting.
func (s *Store) AppendJournal(e JournalEntry) error {
	if e.Job == "" || journalRank(e.State) == 0 {
		return fmt.Errorf("resultstore: journal entry needs a job and a known state (got %q/%q)", e.Job, e.State)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("resultstore: journal: %w", err)
	}
	s.journalMu.Lock()
	defer s.journalMu.Unlock()
	s.foldMu.Lock()
	s.foldJournalLocked(e)
	s.foldMu.Unlock()
	if s.journalF == nil {
		return nil
	}
	if _, err = s.journalF.Write(append(line, '\n')); err == nil {
		err = s.journalF.Sync()
	}
	if err != nil {
		s.met.writeError()
		return fmt.Errorf("resultstore: journal append: %w", err)
	}
	s.met.fsync()
	s.journalBytes += int64(len(line)) + 1
	if s.journalBytes-s.journalFolded > max(journalCompactMin, journalCompactFactor*s.journalFolded) {
		// The entry is already durable: a failed rewrite leaves the longer
		// file in place and a later append retries.
		if err := s.compactJournalLocked(); err != nil {
			s.met.writeError()
			slog.Warn("resultstore: journal compaction failed", "err", err)
		}
	}
	return nil
}

// foldJournalLocked merges one entry into the folded view; callers hold
// journalMu and foldMu. A terminal entry with a snapshot takes the
// job's place (newest snapshot wins, the payload goes) and stays as
// history, bounded by maxJobsInMemory; one without — journals from before snapshots rode
// along — only retires the pending job. Non-terminal states upgrade a
// pending job by rank and fill in fields the first entry carried.
func (s *Store) foldJournalLocked(e JournalEntry) {
	cur, ok := s.journal[e.Job]
	switch {
	case e.Terminal() && e.Snapshot != nil:
		e.Payload = nil
		if !ok {
			s.journalOrder = append(s.journalOrder, e.Job)
		}
		if !ok || !cur.Terminal() {
			s.journalDone++
		}
		s.journal[e.Job] = &e
		if s.journalDone > maxJobsInMemory { // one over: forget the oldest
			i := slices.IndexFunc(s.journalOrder, func(id string) bool { return s.journal[id].Terminal() })
			s.dropJournalLocked(s.journalOrder[i])
			s.journalDone--
		}
	case ok && cur.Terminal():
		// Nothing reopens a finished job.
	case e.Terminal():
		s.dropJournalLocked(e.Job)
	case !ok:
		s.journal[e.Job] = &e
		s.journalOrder = append(s.journalOrder, e.Job)
	default:
		if journalRank(e.State) >= journalRank(cur.State) {
			cur.State = e.State
		}
		if cur.Campaign == "" {
			cur.Campaign = e.Campaign
		}
		if cur.Name == "" {
			cur.Name = e.Name
		}
		if cur.Payload == nil {
			cur.Payload = e.Payload
		}
	}
}

// dropJournalLocked forgets one job (a no-op for unknown ones); callers
// hold journalMu and foldMu.
func (s *Store) dropJournalLocked(job string) {
	delete(s.journal, job)
	s.journalOrder = slices.DeleteFunc(s.journalOrder, func(id string) bool { return id == job })
}

// PendingJobs returns the folded journal view of jobs that never
// reached a terminal state: what a recovering control plane must
// re-enqueue (queued) or resume (running), in first-journaled order.
func (s *Store) PendingJobs() []JournalEntry { return s.journalView(false) }

// JobHistory returns the terminal entry — the newest snapshot — of every
// retained finished job, in first-journaled order.
func (s *Store) JobHistory() []JournalEntry { return s.journalView(true) }

// Job returns the folded journal entry of one job: pending, or finished
// and still retained.
func (s *Store) Job(id string) (JournalEntry, bool) {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	if e := s.journal[id]; e != nil {
		return *e, true
	}
	return JournalEntry{}, false
}

func (s *Store) journalView(terminal bool) []JournalEntry {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	var out []JournalEntry
	for _, id := range s.journalOrder {
		if e := s.journal[id]; e.Terminal() == terminal {
			out = append(out, *e)
		}
	}
	return out
}

// loadJournal replays and compacts the job journal at open. Replay
// tolerates torn writes the same way segments do: only complete lines
// that decode to a job and a known state count, the rest are dropped
// and counted. A data directory from before the two job logs were
// merged also holds jobs.jsonl; its snapshots are older than anything
// the journal says about the same job, so they fold first, as terminal
// entries, and the file is removed only once the compacted journal
// holding them is durable — dying in between repeats the same fold.
func (s *Store) loadJournal() error {
	replay := func(e JournalEntry, ok bool) {
		if !ok || e.Job == "" {
			s.journalDropped++
			return
		}
		s.foldJournalLocked(e)
	}
	legacy := filepath.Join(s.dir, legacyJobsFile)
	if data, err := os.ReadFile(legacy); err == nil {
		for _, line := range completeLines(data) {
			var v struct{ ID, State string }
			err := json.Unmarshal(line, &v)
			e := JournalEntry{Job: v.ID, State: v.State, Snapshot: append([]byte(nil), line...)}
			replay(e, err == nil && e.Terminal())
		}
	}
	if data, err := os.ReadFile(filepath.Join(s.dir, journalFile)); err == nil {
		for _, line := range completeLines(data) {
			var e JournalEntry
			err := json.Unmarshal(line, &e)
			replay(e, err == nil && journalRank(e.State) != 0)
		}
	}
	if s.journalDropped > 0 {
		slog.Warn("resultstore: dropped corrupt job journal lines", "lines", s.journalDropped)
	}
	if err := s.compactJournalLocked(); err != nil {
		return err
	}
	if err := os.Remove(legacy); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// compactJournalLocked atomically replaces the journal file with its
// fold — one line per pending job (payload included) and per retained
// finished job (snapshot included) — and reattaches the append handle;
// callers hold journalMu or are Open. writeFileSync renames a synced
// temp file over the old journal, so a crash leaves one or the other.
func (s *Store) compactJournalLocked() error {
	var folded []byte
	for _, id := range s.journalOrder {
		folded = append(append(folded, mustJSON(s.journal[id])...), '\n')
	}
	path := filepath.Join(s.dir, journalFile)
	if err := writeFileSync(path, folded); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if s.journalF != nil {
		_ = s.journalF.Close() // replaced, and every append to it was synced
	}
	s.journalF = f
	s.journalBytes, s.journalFolded = int64(len(folded)), int64(len(folded))
	return nil
}
