package resultstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"profipy/internal/obs"
)

func appendJournal(t *testing.T, s *Store, job, state string) {
	t.Helper()
	if err := s.AppendJournal(JournalEntry{Job: job, State: state, TimeMS: 1}); err != nil {
		t.Fatalf("journal %s %s: %v", job, state, err)
	}
}

func pendingIDs(s *Store) []string {
	var ids []string
	for _, e := range s.PendingJobs() {
		ids = append(ids, e.Job+":"+e.State)
	}
	return ids
}

func TestJournalFoldPrecedence(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		name := "memory"
		if dir != "" {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			// queued → running upgrades in place; terminal retires the job;
			// a late stale "queued" after terminal must not resurrect it.
			if err := s.AppendJournal(JournalEntry{
				Job: "job-1", State: JournalQueued, Campaign: "camp-1", Name: "p",
				Payload: json.RawMessage(`{"x":1}`), TimeMS: 1,
			}); err != nil {
				t.Fatal(err)
			}
			appendJournal(t, s, "job-2", JournalQueued)
			appendJournal(t, s, "job-1", JournalRunning)
			got := pendingIDs(s)
			want := []string{"job-1:" + JournalRunning, "job-2:" + JournalQueued}
			if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("pending = %v, want %v", got, want)
			}
			// The running upgrade must keep the queued entry's payload.
			if p := s.PendingJobs()[0]; string(p.Payload) != `{"x":1}` || p.Campaign != "camp-1" {
				t.Fatalf("upgrade lost payload: %+v", p)
			}
			appendJournal(t, s, "job-2", JournalDone)
			appendJournal(t, s, "job-1", JournalFailed)
			if got := pendingIDs(s); len(got) != 0 {
				t.Fatalf("pending after terminal = %v, want none", got)
			}
			// A running entry with no prior queued entry still pends.
			appendJournal(t, s, "job-3", JournalRunning)
			if got := pendingIDs(s); len(got) != 1 || got[0] != "job-3:"+JournalRunning {
				t.Fatalf("pending = %v", got)
			}
			if err := s.AppendJournal(JournalEntry{Job: "", State: JournalQueued}); err == nil {
				t.Fatal("journal accepted empty job ID")
			}
		})
	}
}

// TestJobLooksUpOneFoldedEntry: the by-ID accessor answers what the
// fold holds of one job — pending with its payload, finished with its
// snapshot, nothing for a job retired without one — on a memory-only
// store as on disk, and again after a reopen.
func TestJobLooksUpOneFoldedEntry(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		check := func(s *Store) {
			t.Helper()
			if e, ok := s.Job("job-1"); !ok || !e.Terminal() || string(e.Snapshot) != `{"id":"job-1"}` || e.Payload != nil {
				t.Errorf("dir %q: finished job = %+v, %v", dir, e, ok)
			}
			if e, ok := s.Job("job-2"); !ok || e.Terminal() || e.State != JournalRunning || string(e.Payload) != `{"x":2}` {
				t.Errorf("dir %q: pending job = %+v, %v", dir, e, ok)
			}
			for _, id := range []string{"job-3", "job-4", ""} {
				if e, ok := s.Job(id); ok {
					t.Errorf("dir %q: Job(%q) = %+v, want none", dir, id, e)
				}
			}
		}
		for _, e := range []JournalEntry{
			{Job: "job-1", State: JournalQueued, Payload: json.RawMessage(`{"x":1}`)},
			{Job: "job-2", State: JournalQueued, Payload: json.RawMessage(`{"x":2}`)},
			{Job: "job-3", State: JournalQueued},
			{Job: "job-1", State: JournalDone, Snapshot: json.RawMessage(`{"id":"job-1"}`)},
			{Job: "job-2", State: JournalRunning},
			{Job: "job-3", State: JournalCanceled}, // no snapshot: retired, not history
		} {
			if err := s.AppendJournal(e); err != nil {
				t.Fatal(err)
			}
		}
		check(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if dir != "" {
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			check(s2)
			s2.Close()
		}
	}
}

func TestJournalSurvivesRestartAndCompacts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendJournal(t, s, "job-1", JournalQueued)
	appendJournal(t, s, "job-1", JournalRunning)
	appendJournal(t, s, "job-2", JournalQueued)
	appendJournal(t, s, "job-3", JournalQueued)
	appendJournal(t, s, "job-3", JournalDone)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn final append: half a JSON line at the tail must be
	// dropped without poisoning the records before it.
	jp := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"job":"job-9","state":"que`); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := pendingIDs(s2)
	want := []string{"job-1:" + JournalRunning, "job-2:" + JournalQueued}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("pending after reload = %v, want %v", got, want)
	}
	// Open compacted the journal: one folded line per pending job, the
	// terminal and torn lines gone.
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("compacted journal has %d lines, want 2:\n%s", len(lines), data)
	}
	// And appends after the compaction still land.
	appendJournal(t, s2, "job-4", JournalQueued)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := pendingIDs(s3); len(got) != 3 {
		t.Fatalf("pending after second reload = %v", got)
	}
}

func TestResumeCampaignAppendsToFreshSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSegmentRecords(4)
	w, err := s.StartCampaign(Meta{ID: "camp-1", Project: "p"})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 6) // one rolled segment + open tail
	_ = s.Close()    // crash-like: campaign never finished

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta, _ := s2.Get("camp-1"); meta.Status != StatusInterrupted {
		t.Fatalf("reloaded status = %q, want %q", meta.Status, StatusInterrupted)
	}
	if _, err := s2.ResumeCampaign("camp-9"); err == nil {
		t.Fatal("resumed unknown campaign")
	}
	w2, err := s2.ResumeCampaign("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if meta, _ := s2.Get("camp-1"); meta.Status != StatusRunning {
		t.Fatalf("resumed status = %q, want %q", meta.Status, StatusRunning)
	}
	if _, err := s2.ResumeCampaign("camp-1"); err == nil {
		t.Fatal("double resume succeeded")
	}
	for i := 6; i < 10; i++ {
		if err := w2.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Finish(StatusDone, nil, nil); err != nil {
		t.Fatal(err)
	}
	if lines := recordLines(t, s2, "camp-1"); len(lines) != 10 {
		t.Fatalf("resumed campaign has %d records, want 10", len(lines))
	}
	// The resumed writer must have started a new segment file rather
	// than appending to the possibly-torn tail of the crashed one.
	segs, _ := filepath.Glob(filepath.Join(dir, "campaigns", "camp-1", "records-*.jsonl"))
	if len(segs) < 3 {
		t.Fatalf("expected >=3 segment files after resume, got %v", segs)
	}
	// A finished campaign cannot be resumed.
	if _, err := s2.ResumeCampaign("camp-1"); err == nil {
		t.Fatal("resumed a done campaign")
	}
	// And the records all survive another restart.
	_ = s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lines := recordLines(t, s3, "camp-1"); len(lines) != 10 {
		t.Fatalf("after reload: %d records, want 10", len(lines))
	}
}

func TestWriteErrorDegradesCampaignButKeepsReads(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Instrument(reg)
	s.SetSegmentRecords(2)
	w, err := s.StartCampaign(Meta{ID: "camp-1", Project: "p"})
	if err != nil {
		t.Fatal(err)
	}
	// The start makes the first segment; once the first append has
	// joined it, put a directory where the second one goes, so that
	// segment's create fails — a full disk looks the same.
	if err := w.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "campaigns", "camp-1", segName(2), "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatalf("append after degradation returned error: %v", err)
		}
	}
	// Reads keep serving every record, including the memory-only ones.
	if lines := recordLines(t, s, "camp-1"); len(lines) != 5 {
		t.Fatalf("degraded campaign serves %d records, want 5", len(lines))
	}
	if err := w.Finish(StatusDone, nil, nil); err == nil {
		t.Fatal("Finish on a degraded campaign did not surface the write error")
	}
	meta, _ := s.Get("camp-1")
	if meta.Status != StatusDegraded {
		t.Fatalf("status = %q, want %q", meta.Status, StatusDegraded)
	}
	if meta.Error == "" {
		t.Fatal("degraded campaign has no error message")
	}
	if v := reg.Counter("profipy_resultstore_write_errors_total", "").Value(); v < 1 {
		t.Fatalf("write_errors_total = %v, want >= 1", v)
	}
}

// TestRestoreSalvagesTornMeta tears meta.json at every byte offset, as
// after a crash mid-rename on a filesystem without atomic rename (or a
// corrupted sector). Whatever still parses loads as written; anything
// else is quarantined and the campaign comes back interrupted,
// resumable and serving all its records — never dropped, never a panic.
func TestRestoreSalvagesTornMeta(t *testing.T) {
	dir := t.TempDir()
	cdir := writeCampaign(t, dir, "camp-1", 5)
	metaPath := filepath.Join(cdir, "meta.json")
	orig, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(orig); cut++ {
		_ = os.Remove(metaPath + ".bad")
		if err := os.WriteFile(metaPath, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		meta, ok := s.Get("camp-1")
		if !ok {
			t.Fatalf("cut at %d: campaign with torn meta was dropped", cut)
		}
		if lines := recordLines(t, s, "camp-1"); len(lines) != 5 {
			t.Fatalf("cut at %d: salvaged campaign serves %d records, want 5", cut, len(lines))
		}
		if json.Valid(orig[:cut]) {
			if meta.Status != StatusDone {
				t.Fatalf("cut at %d: intact meta loaded as %q", cut, meta.Status)
			}
			_ = s.Close()
			continue
		}
		if meta.Status != StatusInterrupted {
			t.Fatalf("cut at %d: salvaged status = %q, want %q", cut, meta.Status, StatusInterrupted)
		}
		if _, err := os.Stat(metaPath + ".bad"); err != nil {
			t.Fatalf("cut at %d: torn meta not quarantined: %v", cut, err)
		}
		// The salvaged campaign is resumable.
		if _, err := s.ResumeCampaign("camp-1"); err != nil {
			t.Fatalf("cut at %d: resume salvaged campaign: %v", cut, err)
		}
		_ = s.Close()
	}
}

// journalViews renders a store's two folded views for comparison.
func journalViews(s *Store) string {
	return string(mustJSON(map[string]any{"pending": s.PendingJobs(), "history": s.JobHistory()}))
}

// jobCycle is the three lines one campaign job leaves in the journal.
func jobCycle(i int, payload json.RawMessage) []JournalEntry {
	id := fmt.Sprintf("job-%d", i)
	return []JournalEntry{
		{Job: id, State: JournalQueued, Campaign: fmt.Sprintf("camp-%d", i), Name: "p", Payload: payload, TimeMS: int64(i)},
		{Job: id, State: JournalRunning, TimeMS: int64(i)},
		{Job: id, State: JournalDone, Snapshot: json.RawMessage(fmt.Sprintf(`{"id":%q,"state":"done","campaign":"camp-%d"}`, id, i)), TimeMS: int64(i)},
	}
}

// TestJournalCompactsWhileRunning: a long-lived daemon's journal stays
// O(pending jobs + retained history) — not 17 KB × every job ever
// submitted — and compaction never changes what the journal means: the
// views equal an uncompacted fold of the same entries, live and after
// a reopen.
func TestJournalCompactsWhileRunning(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := Open("") // memory-only: the same fold, never compacted
	both := func(e JournalEntry) {
		t.Helper()
		if err := s.AppendJournal(e); err != nil {
			t.Fatal(err)
		}
		_ = ref.AppendJournal(e)
	}
	payload := mustJSON(map[string]string{"files": strings.Repeat("x", 17<<10)})
	path := filepath.Join(dir, journalFile)
	var appended, peak int64
	for i := 1; i <= 2000; i++ {
		for _, e := range jobCycle(i, payload) {
			both(e)
			appended += int64(len(mustJSON(e))) + 1
		}
		if st, err := os.Stat(path); err != nil {
			t.Fatal(err)
		} else if st.Size() > peak {
			peak = st.Size()
		}
	}
	both(jobCycle(2001, payload)[0]) // one job still queued ...
	both(jobCycle(2002, payload)[0]) // ... and one running at the end
	both(jobCycle(2002, payload)[1])

	// The bound: the fold holds at most maxJobsInMemory snapshot lines
	// (~100 B here) and the pending payloads; the file may exceed the fold
	// by journalCompactFactor× plus the floor plus the line that tripped it.
	folded := int64(maxJobsInMemory*200 + 2*len(payload))
	if bound := (journalCompactFactor+1)*folded + journalCompactMin + int64(len(payload)); peak > bound {
		t.Errorf("journal peaked at %d bytes over %d appended, bound %d", peak, appended, bound)
	}
	if peak*10 > appended {
		t.Errorf("journal peaked at %d of %d appended bytes: not compacting", peak, appended)
	}
	if got, want := journalViews(s), journalViews(ref); got != want {
		t.Fatalf("compacted views differ from the uncompacted fold:\n got %.300s\nwant %.300s", got, want)
	}
	if n := len(s.JobHistory()); n != maxJobsInMemory {
		t.Errorf("history holds %d jobs, want the newest %d", n, maxJobsInMemory)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, want := journalViews(s2), journalViews(ref); got != want {
		t.Fatalf("reopened views differ from the uncompacted fold:\n got %.300s\nwant %.300s", got, want)
	}
}

// legacyDataDir lays out what a data directory from before the job logs
// were merged holds: jobs.jsonl (a stale and a final snapshot of job-1,
// garbage, job-2, a torn tail) next to a journal whose terminal lines
// carry no snapshot, with job-3 still running and job-4 still queued.
func legacyDataDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name, data string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(legacyJobsFile, `{"id":"job-1","state":"failed","error":"stale"}
{"id":"job-1","state":"done","campaign":"camp-1"}
not json
{"id":"job-2","state":"canceled"}
{"id":"job-9","state":"running"}
{"id":"job-5","sta`)
	write(journalFile, `{"job":"job-1","state":"queued","payload":{"n":1}}
{"job":"job-1","state":"running"}
{"job":"job-1","state":"done"}
{"job":"job-2","state":"queued","payload":{"n":2}}
{"job":"job-2","state":"canceled"}
{"job":"job-3","state":"queued","campaign":"camp-3","payload":{"n":3}}
{"job":"job-3","state":"running"}
{"job":"job-4","state":"queued","campaign":"camp-4","payload":{"n":4}}
`)
	return dir
}

// TestLegacyJobsFileFoldsIntoJournal is the migration: one open folds
// jobs.jsonl into the journal and removes it, a second open changes
// nothing, and a process that died between the compaction and the
// removal repeats the same fold.
func TestLegacyJobsFileFoldsIntoJournal(t *testing.T) {
	dir := legacyDataDir(t)
	legacy, err := os.ReadFile(filepath.Join(dir, legacyJobsFile))
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, wantDropped int) []byte {
		t.Helper()
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		defer s.Close()
		if got := pendingIDs(s); !reflect.DeepEqual(got, []string{"job-3:running", "job-4:queued"}) {
			t.Errorf("%s: pending = %v", step, got)
		}
		if p := s.PendingJobs(); string(p[0].Payload) != `{"n":3}` || p[1].Campaign != "camp-4" {
			t.Errorf("%s: pending jobs lost their submission: %+v", step, p)
		}
		var history []string
		for _, e := range s.JobHistory() {
			history = append(history, string(e.Snapshot))
		}
		if want := []string{`{"id":"job-1","state":"done","campaign":"camp-1"}`, `{"id":"job-2","state":"canceled"}`}; !reflect.DeepEqual(history, want) {
			t.Errorf("%s: history = %v, want %v", step, history, want)
		}
		if s.journalDropped != wantDropped {
			t.Errorf("%s: dropped %d lines, want %d", step, s.journalDropped, wantDropped)
		}
		if _, err := os.Stat(filepath.Join(dir, legacyJobsFile)); !os.IsNotExist(err) {
			t.Errorf("%s: jobs.jsonl still there (%v)", step, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// "not json" and the non-terminal job-9 snapshot are dropped and
	// counted; the torn tail is not a line.
	migrated := check("migration", 2)
	if again := check("second open", 0); !bytes.Equal(again, migrated) {
		t.Errorf("second open rewrote the journal:\n%s\nvs\n%s", again, migrated)
	}
	if err := os.WriteFile(filepath.Join(dir, legacyJobsFile), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if again := check("died before removing jobs.jsonl", 2); !bytes.Equal(again, migrated) {
		t.Errorf("repeated migration changed the journal:\n%s\nvs\n%s", again, migrated)
	}
}
