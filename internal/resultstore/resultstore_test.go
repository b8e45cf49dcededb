package resultstore

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/obs"
	"profipy/internal/scanner"
	"profipy/internal/workload"
)

// testRecord builds a distinguishable record for index i.
func testRecord(i int) analysis.Record {
	return analysis.Record{
		Point:     scanner.InjectionPoint{File: fmt.Sprintf("f%d.py", i%3), Line: i, Func: "F"},
		FaultType: "T",
		Covered:   i%2 == 0,
		Result:    &workload.Result{Rounds: []workload.RoundResult{{OK: true, Steps: int64(i)}}},
	}
}

func appendN(t *testing.T, w *Writer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func recordLines(t *testing.T, s *Store, id string) []json.RawMessage {
	t.Helper()
	var all []json.RawMessage
	var after int64
	for {
		page, err := s.Records(id, after, 7)
		if err != nil {
			t.Fatalf("records after %d: %v", after, err)
		}
		all = append(all, page.Records...)
		if page.Next == after {
			return all
		}
		after = page.Next
	}
}

func TestSegmentRollAndPagination(t *testing.T) {
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
			s.SetSegmentRecords(5)
			w, err := s.StartCampaign(Meta{ID: "camp-1", Project: "p"})
			if err != nil {
				t.Fatal(err)
			}
			const n = 23 // 4 full segments + open tail
			appendN(t, w, n)

			lines := recordLines(t, s, "camp-1")
			if len(lines) != n {
				t.Fatalf("paginated %d records, want %d", len(lines), n)
			}
			for i, line := range lines {
				var rec analysis.Record
				if err := json.Unmarshal(line, &rec); err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if rec.Point.Line != i {
					t.Errorf("record %d out of order: line %d", i, rec.Point.Line)
				}
			}

			// Mid-stream page before finish: not done.
			page, err := s.Records("camp-1", 20, 10)
			if err != nil {
				t.Fatal(err)
			}
			if page.Done || page.Total != n || len(page.Records) != 3 {
				t.Errorf("live tail page = done=%v total=%d len=%d, want false/%d/3", page.Done, page.Total, len(page.Records), n)
			}

			rep := &analysis.Report{Total: n, Modes: map[string]int{}, ByType: map[string]*analysis.TypeStats{}, ByComponent: map[string]*analysis.TypeStats{}}
			if err := w.Finish(StatusDone, map[string]int{"points": n}, rep); err != nil {
				t.Fatal(err)
			}
			page, err = s.Records("camp-1", 20, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !page.Done {
				t.Error("final page not marked done after Finish")
			}
			got, err := s.Report("camp-1")
			if err != nil {
				t.Fatal(err)
			}
			var gotRep analysis.Report
			if err := json.Unmarshal(got, &gotRep); err != nil {
				t.Fatal(err)
			}
			if gotRep.Total != n {
				t.Errorf("stored report total = %d, want %d", gotRep.Total, n)
			}
			meta, ok := s.Get("camp-1")
			if !ok || meta.Status != StatusDone || meta.Records != n {
				t.Errorf("meta = %+v, want done with %d records", meta, n)
			}
		})
	}
}

func TestReopenServesCompletedCampaign(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSegmentRecords(4)
	w, err := s.StartCampaign(Meta{ID: "camp-9", Project: "proj", Name: "python-etcd"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 11
	appendN(t, w, n)
	rep := &analysis.Report{Total: n, Modes: map[string]int{"crash": 2}, ByType: map[string]*analysis.TypeStats{}, ByComponent: map[string]*analysis.TypeStats{}}
	if err := w.Finish(StatusDone, nil, rep); err != nil {
		t.Fatal(err)
	}
	before := recordLines(t, s, "camp-9")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process opens the same directory.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	metas := s2.List()
	if len(metas) != 1 || metas[0].ID != "camp-9" || metas[0].Status != StatusDone || metas[0].Records != n {
		t.Fatalf("reopened metas = %+v", metas)
	}
	after := recordLines(t, s2, "camp-9")
	if !reflect.DeepEqual(before, after) {
		t.Error("records drifted across reopen")
	}
	repData, err := s2.Report("camp-9")
	if err != nil {
		t.Fatal(err)
	}
	var rep2 analysis.Report
	if err := json.Unmarshal(repData, &rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.Modes["crash"] != 2 {
		t.Errorf("reopened report = %+v", rep2)
	}
}

func TestReopenAfterAbortKeepsAppendedRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSegmentRecords(3)
	w, err := s.StartCampaign(Meta{ID: "camp-2", Project: "p"})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 8)
	if err := w.Abort(StatusCanceled); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, ok := s2.Get("camp-2")
	if !ok || meta.Status != StatusCanceled || meta.Records != 8 {
		t.Fatalf("meta after abort+reopen = %+v", meta)
	}
	if got := recordLines(t, s2, "camp-2"); len(got) != 8 {
		t.Errorf("kept %d records, want 8", len(got))
	}
	if _, err := s2.Report("camp-2"); err == nil {
		t.Error("aborted campaign should have no report")
	}
}

func TestReopenMarksCrashedCampaignInterrupted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSegmentRecords(2)
	w, err := s.StartCampaign(Meta{ID: "camp-3", Project: "p"})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 5)
	// Simulate a crash: no Finish/Abort/Close. Also tear one line.
	path := filepath.Join(dir, "campaigns", "camp-3", segName(3))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, ok := s2.Get("camp-3")
	if !ok || meta.Status != StatusInterrupted {
		t.Fatalf("meta after crash = %+v, want interrupted", meta)
	}
	if got := recordLines(t, s2, "camp-3"); len(got) != 5 {
		t.Errorf("kept %d complete records, want 5 (torn tail dropped)", len(got))
	}
	page, err := s2.Records("camp-3", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !page.Done {
		t.Error("interrupted campaign pages should be done (nothing more will come)")
	}
}

func TestFollowStreamsLiveRecords(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetSegmentRecords(4)
	w, err := s.StartCampaign(Meta{ID: "camp-live", Project: "p"})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 3) // records present before the follower attaches

	const total = 10
	var mu sync.Mutex
	var got []int64
	done := make(chan error, 1)
	go func() {
		done <- s.Follow(context.Background(), "camp-live", 0, func(seq int64, line json.RawMessage) error {
			mu.Lock()
			got = append(got, seq)
			mu.Unlock()
			return nil
		})
	}()

	for i := 3; i < total; i++ {
		time.Sleep(2 * time.Millisecond)
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(StatusDone, nil, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("follow: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower did not terminate after Finish")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != total {
		t.Fatalf("follower saw %d records, want %d", len(got), total)
	}
	for i, seq := range got {
		if seq != int64(i+1) {
			t.Fatalf("sequence %v not contiguous", got)
		}
	}
}

func TestFollowHonorsContextAndCursor(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.StartCampaign(Meta{ID: "c", Project: "p"})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 6)
	// Resume after cursor 4: only records 5 and 6.
	var seqs []int64
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- s.Follow(ctx, "c", 4, func(seq int64, line json.RawMessage) error {
			seqs = append(seqs, seq)
			if seq == 6 {
				cancel() // live campaign: follower now waits; cancel ends it
			}
			return nil
		})
	}()
	select {
	case err := <-errCh:
		if err != context.Canceled {
			t.Fatalf("follow err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follow did not honor cancellation")
	}
	if !reflect.DeepEqual(seqs, []int64{5, 6}) {
		t.Errorf("resumed seqs = %v, want [5 6]", seqs)
	}
	if err := s.Follow(context.Background(), "missing", 0, nil); err != ErrNotFound {
		t.Errorf("unknown id err = %v, want ErrNotFound", err)
	}
}

func TestJobHistorySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("job-%d", i)
		appendJournal(t, s, id, JournalQueued)
		if err := s.AppendJournal(JournalEntry{
			Job: id, State: JournalDone, Snapshot: json.RawMessage(fmt.Sprintf(`{"id":%q,"state":"done"}`, id)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := s2.JobHistory()
	if len(jobs) != 3 || len(s2.PendingJobs()) != 0 {
		t.Fatalf("reloaded %d finished + %d pending jobs, want 3 + 0", len(jobs), len(s2.PendingJobs()))
	}
	var last struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(jobs[2].Snapshot, &last); err != nil || last.ID != "job-3" {
		t.Errorf("last job = %s (%v)", jobs[2].Snapshot, err)
	}
}

func TestStartCampaignRejectsBadIDs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../evil", "a/b", `a\b`} {
		if _, err := s.StartCampaign(Meta{ID: id}); err == nil {
			t.Errorf("id %q accepted", id)
		}
	}
	if _, err := s.StartCampaign(Meta{ID: "dup"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartCampaign(Meta{ID: "dup"}); err == nil {
		t.Error("duplicate campaign id accepted")
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetSegmentRecords(8)
	w, err := s.StartCampaign(Meta{ID: "camp-c", Project: "p"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := w.Append(testRecord(i)); err != nil {
				t.Error(err)
				return
			}
		}
		w.Finish(StatusDone, nil, nil)
	}()
	var cursor int64
	for {
		page, err := s.Records("camp-c", cursor, 50)
		if err != nil {
			t.Fatal(err)
		}
		cursor = page.Next
		if page.Done {
			break
		}
	}
	wg.Wait()
	if got := recordLines(t, s, "camp-c"); len(got) != n {
		t.Fatalf("read %d records, want %d", len(got), n)
	}
}

// TestFollowCancelsMidDrain: a canceled follower must detach even while
// the campaign keeps producing records — the drain loop never reaches
// the idle watch, so cancellation has to be checked between pages. The
// follower cancels during the first page of a 2500-record backlog and
// must not be fed the remaining pages.
func TestFollowCancelsMidDrain(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Instrument(reg)
	w, err := s.StartCampaign(Meta{ID: "busy", Project: "p"})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 2500) // campaign stays live: the drain loop never idles

	subscribers := reg.Gauge("profipy_resultstore_follow_subscribers", "")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	err = s.Follow(ctx, "busy", 0, func(seq int64, line json.RawMessage) error {
		delivered++
		if seq == 10 {
			cancel()
		}
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("follow err = %v, want context.Canceled", err)
	}
	// The page being drained at cancel time finishes (fn kept returning
	// nil), but no further page may start.
	if delivered > 1000 {
		t.Fatalf("delivered %d records after cancellation, want at most one page (1000)", delivered)
	}
	if got := subscribers.Value(); got != 0 {
		t.Fatalf("follow_subscribers gauge = %v after follower detached, want 0", got)
	}
}

func TestSeq(t *testing.T) {
	for id, want := range map[string]int{
		"camp-12": 12, "job-7": 7, "camp-0": 0, "demo-python-etcd": 0, "alpha": 0, "": 0, "camp-": 0, "a-b-3": 3,
	} {
		if got := Seq(id); got != want {
			t.Errorf("Seq(%q) = %d, want %d", id, got, want)
		}
	}
}
