package resultstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"profipy/internal/analysis"
	"profipy/internal/obs"
)

// writeCampaign populates a disk store with n records across several
// segments, finishes it and closes the store, returning the campaign
// directory.
func writeCampaign(t *testing.T, dir, id string, n int) string {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSegmentRecords(4)
	w, err := s.StartCampaign(Meta{ID: id, Project: "p"})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, n)
	if err := w.Finish(StatusDone, nil, &analysis.Report{Total: n}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "campaigns", id)
}

func segments(t *testing.T, cdir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(cdir, "records-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatalf("no record segments under %s", cdir)
	}
	return names
}

// TestRestoreDropsTornTrailingWrite truncates the last segment
// mid-line (a crashed process's torn write): restore must drop only
// the torn fragment and keep serving every complete record.
func TestRestoreDropsTornTrailingWrite(t *testing.T) {
	dir := t.TempDir()
	cdir := writeCampaign(t, dir, "camp-torn", 10)
	segs := segments(t, cdir)
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("restore with torn segment failed: %v", err)
	}
	defer s.Close()
	got := recordLines(t, s, "camp-torn")
	if len(got) != 9 { // 10 minus the torn final line
		t.Fatalf("restored %d records, want 9", len(got))
	}
}

// TestRestoreQuarantinesBitFlippedSegment corrupts an interior byte of
// the first segment: restore must rename it to .bad, log, and keep
// serving the surviving segments instead of refusing the campaign.
func TestRestoreQuarantinesBitFlippedSegment(t *testing.T) {
	dir := t.TempDir()
	cdir := writeCampaign(t, dir, "camp-rot", 10)
	segs := segments(t, cdir)
	if len(segs) < 2 {
		t.Fatalf("want >=2 segments, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff // destroy the opening brace of the first JSON line
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("restore with corrupt segment failed: %v", err)
	}
	defer s.Close()

	// The damaged file moved aside; the healthy segments still serve.
	if _, err := os.Stat(segs[0] + ".bad"); err != nil {
		t.Errorf("corrupt segment not quarantined: %v", err)
	}
	if _, err := os.Stat(segs[0]); !os.IsNotExist(err) {
		t.Errorf("corrupt segment still present: %v", err)
	}
	got := recordLines(t, s, "camp-rot")
	if len(got) != 6 { // 10 records minus the quarantined 4-record segment
		t.Fatalf("restored %d records, want 6", len(got))
	}
	for _, ln := range got {
		if strings.Contains(string(ln), "\x00") {
			t.Fatal("corrupt bytes leaked into served records")
		}
	}
}

// TestRestoreSurvivesAllSegmentsCorrupt quarantines everything: the
// campaign restores with zero records but the store still opens.
func TestRestoreSurvivesAllSegmentsCorrupt(t *testing.T) {
	dir := t.TempDir()
	cdir := writeCampaign(t, dir, "camp-dead", 6)
	for _, seg := range segments(t, cdir) {
		if err := os.WriteFile(seg, []byte("not json at all\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("restore failed: %v", err)
	}
	defer s.Close()
	if got := recordLines(t, s, "camp-dead"); len(got) != 0 {
		t.Fatalf("restored %d records from fully corrupt campaign, want 0", len(got))
	}
}

// journalFixture is a journal as a daemon leaves it (never compacted):
// job-1 finished, job-2 running, job-3 queued, then — the last two
// lines — job-2 finishes and job-4 is accepted.
func journalFixture() []JournalEntry {
	lines := append(jobCycle(1, json.RawMessage(`{"n":1}`)), jobCycle(2, json.RawMessage(`{"n":2}`))[:2]...)
	lines = append(lines, jobCycle(3, json.RawMessage(`{"n":3}`))[0])
	return append(lines, jobCycle(2, nil)[2], jobCycle(4, json.RawMessage(`{"n":4}`))[0])
}

func journalBytes(entries []JournalEntry) []byte {
	var data []byte
	for _, e := range entries {
		data = append(append(data, mustJSON(e)...), '\n')
	}
	return data
}

// openJournal opens a store over exactly these journal bytes.
func openJournal(t *testing.T, data []byte) *Store {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// foldOf is the reference: the views of a memory-only store fed the
// entries one by one.
func foldOf(entries []JournalEntry) string {
	ref, _ := Open("")
	for _, e := range entries {
		_ = ref.AppendJournal(e)
	}
	return journalViews(ref)
}

// TestJournalTornAtEveryOffset truncates the journal at every byte of
// its last two lines — every place a crash can cut the write-ahead
// log's tail: the fold must equal the fold of the complete lines that
// survive, so job-2 is finished or still pending (never both, never
// gone) and job-4 is pending or was never accepted.
func TestJournalTornAtEveryOffset(t *testing.T) {
	entries := journalFixture()
	data := journalBytes(entries)
	keep := len(entries) - 2
	start := len(journalBytes(entries[:keep]))
	for cut := start; cut <= len(data); cut++ {
		whole := keep
		for whole < len(entries) && len(journalBytes(entries[:whole+1])) <= cut {
			whole++
		}
		s := openJournal(t, data[:cut])
		if got, want := journalViews(s), foldOf(entries[:whole]); got != want {
			t.Fatalf("cut at %d (%d whole lines):\n got %s\nwant %s", cut, whole, got, want)
		}
		if s.journalDropped != 0 {
			t.Fatalf("cut at %d: a torn tail counted as %d corrupt lines", cut, s.journalDropped)
		}
	}
}

// TestJournalValueCorruption poisons one stored value at a time, keeping
// its JSON type (PAPERS.md, Data Poisoning: cheap value corruption finds
// what crashes do not). A line that no longer names a job and a known
// state is dropped and counted, and the fold is that of the remaining
// lines; a line that still does is folded as what it now says. Either
// way: no panic, a finished job is never pending again, and a pending
// job the poisoned line does not name is never lost.
func TestJournalValueCorruption(t *testing.T) {
	entries := journalFixture()
	without := func(i int) []JournalEntry {
		return append(append([]JournalEntry(nil), entries[:i]...), entries[i+1:]...)
	}
	for i, e := range entries {
		poison := func(name string, mutate func(*JournalEntry), dropped bool) {
			t.Run(fmt.Sprintf("line%d/%s", i, name), func(t *testing.T) {
				bad := append([]JournalEntry(nil), entries...)
				mutate(&bad[i])
				s := openJournal(t, journalBytes(bad))
				want := foldOf(bad)
				if dropped {
					want = foldOf(without(i))
				}
				if got := journalViews(s); got != want {
					t.Errorf("fold:\n got %s\nwant %s", got, want)
				}
				if (s.journalDropped == 1) != dropped {
					t.Errorf("dropped %d lines, want dropped=%v", s.journalDropped, dropped)
				}
				pending := map[string]bool{}
				for _, p := range s.PendingJobs() {
					pending[p.Job] = true
				}
				for _, h := range s.JobHistory() {
					if pending[h.Job] {
						t.Errorf("%s is finished and pending at once", h.Job)
					}
				}
				if pending["job-1"] && e.Job != "job-1" {
					t.Error("finished job-1 resurrected")
				}
				for _, id := range []string{"job-3", "job-4"} {
					if !pending[id] && e.Job != id {
						t.Errorf("pending %s lost", id)
					}
				}
			})
		}
		poison("state-unknown", func(e *JournalEntry) { e.State = "d0ne" }, true)
		poison("state-empty", func(e *JournalEntry) { e.State = "" }, true)
		poison("state-other", func(e *JournalEntry) { e.State = JournalCanceled }, false)
		poison("job-empty", func(e *JournalEntry) { e.Job = "" }, true)
		poison("job-other", func(e *JournalEntry) { e.Job = "job-77" }, false)
		if e.Snapshot != nil {
			poison("snapshot-other", func(e *JournalEntry) { e.Snapshot = json.RawMessage(`{"id":"job-1","state":"queued"}`) }, false)
			poison("snapshot-empty", func(e *JournalEntry) { e.Snapshot = json.RawMessage(`{}`) }, false)
		}
	}
	// A value whose type changed makes the whole line undecodable.
	data := bytes.Replace(journalBytes(entries), []byte(`"state":"running"`), []byte(`"state":7`), 1)
	if s := openJournal(t, data); s.journalDropped != 1 || journalViews(s) != foldOf(without(1)) {
		t.Errorf("mistyped state: dropped %d, views %s", s.journalDropped, journalViews(s))
	}
}

// TestCampaignDegradesWhenItCannotStartOnDisk: a filesystem failure at
// StartCampaign or ResumeCampaign is not an error — the campaign is
// registered and serves from memory, degraded, exactly like one whose
// disk failed mid-stream. Only names fail.
func TestCampaignDegradesWhenItCannotStartOnDisk(t *testing.T) {
	dir := t.TempDir()
	writeCampaignInterrupted := func() {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		w, err := s.StartCampaign(Meta{ID: "camp-2", Project: "p"})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, w, 3)
		s.Close() // seals camp-2 as interrupted
	}
	writeCampaignInterrupted()
	reg := obs.NewRegistry()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Instrument(reg)
	errors := reg.Counter("profipy_resultstore_write_errors_total", "")

	// A file where camp-1's directory should go: MkdirAll fails.
	if err := os.WriteFile(filepath.Join(dir, "campaigns", "camp-1"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// camp-2's meta.json becomes a non-empty directory: the rename fails.
	meta2 := filepath.Join(dir, "campaigns", "camp-2", "meta.json")
	if err := os.Remove(meta2); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(meta2, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	w1, err := s.StartCampaign(Meta{ID: "camp-1", Project: "p"})
	if err != nil {
		t.Fatalf("StartCampaign on a broken directory: %v", err)
	}
	w2, err := s.ResumeCampaign("camp-2")
	if err != nil {
		t.Fatalf("ResumeCampaign with an unwritable meta: %v", err)
	}
	if v := errors.Value(); v != 2 {
		t.Errorf("write_errors_total = %v, want 2", v)
	}
	for id, w := range map[string]*Writer{"camp-1": w1, "camp-2": w2} {
		before := len(recordLines(t, s, id))
		appendN(t, w, 4)
		if got := len(recordLines(t, s, id)); got != before+4 {
			t.Errorf("%s serves %d records, want %d", id, got, before+4)
		}
		if err := w.Finish(StatusDone, nil, &analysis.Report{Total: 4}); err == nil {
			t.Errorf("%s: Finish did not surface the write error", id)
		}
		meta, _ := s.Get(id)
		if meta.Status != StatusDegraded || meta.Error == "" {
			t.Errorf("%s finished as %+v, want degraded with an error", id, meta)
		}
		if _, err := s.Report(id); err != nil {
			t.Errorf("%s: report not served: %v", id, err)
		}
	}
	if _, err := s.StartCampaign(Meta{ID: "camp-1"}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if _, err := s.ResumeCampaign("camp-1"); err == nil {
		t.Error("resumed a finished campaign")
	}
}
