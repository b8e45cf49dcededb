package resultstore

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/obs"
)

// entryNames lists dir's entries, sorted by name.
func entryNames(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return fmt.Sprint(names)
}

// TestStartMakesEveryFileBeforeTheFirstRecord: once the first Append
// returns, the running meta.json and the first segment are on disk;
// later Appends in that segment create nothing, and the seal leaves
// exactly the report and the terminal metadata beside it.
func TestStartMakesEveryFileBeforeTheFirstRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, err := s.StartCampaign(Meta{ID: "camp-1", Project: "p"})
	if err != nil {
		t.Fatal(err)
	}
	cdir := filepath.Join(dir, "campaigns", "camp-1")
	appendN(t, w, 1)
	data, err := os.ReadFile(filepath.Join(cdir, "meta.json"))
	if err != nil || !strings.Contains(string(data), `"status":"running"`) {
		t.Fatalf("running meta.json after the first append = %s (%v)", data, err)
	}
	if got := completeLines(readFile(t, filepath.Join(cdir, segName(1)))); len(got) != 1 {
		t.Fatalf("first segment holds %d records, want 1", len(got))
	}
	before := entryNames(t, cdir)
	appendN(t, w, 5)
	if got := entryNames(t, cdir); got != before {
		t.Errorf("Append changed the directory: %v → %v", before, got)
	}
	if err := w.Finish(StatusDone, nil, &analysis.Report{Total: 6}); err != nil {
		t.Fatal(err)
	}
	if got, want := entryNames(t, cdir), fmt.Sprint([]string{"meta.json", segName(1), "report.json"}); got != want {
		t.Errorf("sealed campaign holds %v, want %v", got, want)
	}
	if data := readFile(t, filepath.Join(cdir, "meta.json")); !strings.Contains(string(data), `"status":"done"`) {
		t.Errorf("meta.json after Finish = %s", data)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCloseJoinsAnUnjoinedStart: a campaign that never saw a record is
// sealed interrupted by Close, which waits for its start first; nothing
// of the start is left running or lying around.
func TestCloseJoinsAnUnjoinedStart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartCampaign(Meta{ID: "camp-1", Project: "p"}); err != nil {
		t.Fatal(err)
	}
	c, _ := s.camp("camp-1")
	c.mu.Lock()
	st := c.start
	c.mu.Unlock()
	if st == nil {
		t.Fatal("no start pending after StartCampaign")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-st.done:
	default:
		t.Fatal("the start still runs after Close")
	}
	if c.start != nil || c.file != nil {
		t.Error("Close left the start pending or its segment open")
	}
	cdir := filepath.Join(dir, "campaigns", "camp-1")
	if got, want := entryNames(t, cdir), fmt.Sprint([]string{"meta.json", segName(1)}); got != want {
		t.Errorf("closed campaign holds %v, want %v", got, want)
	}
	if data := readFile(t, filepath.Join(cdir, "meta.json")); !strings.Contains(string(data), `"status":"interrupted"`) {
		t.Errorf("meta.json after Close = %s", data)
	}
}

// TestOpenRemovesTempFiles: a crash between a temp file's creation and
// its rename — a torn meta or report write, a torn journal compaction —
// leaves .tmp-* files; Open removes them all.
func TestOpenRemovesTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.StartCampaign(Meta{ID: "camp-1", Project: "p"})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 2) // then the crash: no Finish, no Close
	cdir := filepath.Join(dir, "campaigns", "camp-1")
	for _, path := range []string{filepath.Join(dir, ".tmp-1"), filepath.Join(cdir, ".tmp-2")} {
		if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, d := range []string{dir, cdir} {
		if left, _ := filepath.Glob(filepath.Join(d, ".tmp-*")); len(left) != 0 {
			t.Errorf("Open left %v", left)
		}
	}
	if lines := recordLines(t, s2, "camp-1"); len(lines) != 2 {
		t.Errorf("crashed campaign serves %d records, want 2", len(lines))
	}
}

// TestRunningJournalLineRidesTheNextSync: a queued or terminal journal
// line costs one fsync, a running line none.
func TestRunningJournalLineRidesTheNextSync(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := obs.NewRegistry()
	s.Instrument(reg)
	fsyncs := reg.Counter("profipy_resultstore_fsyncs_total", "")
	for _, step := range []struct {
		state string
		syncs float64
	}{{JournalQueued, 1}, {JournalRunning, 1}, {JournalDone, 2}} {
		appendJournal(t, s, "job-1", step.state)
		if got := fsyncs.Value(); got != step.syncs {
			t.Errorf("after %s: %v fsyncs, want %v", step.state, got, step.syncs)
		}
	}
}

// TestConcurrentStartsAppendsFollowsAndClose runs campaigns that start,
// append and are followed while the store closes under them (run it
// with -race): every follower ends, and every campaign ends sealed.
func TestConcurrentStartsAppendsFollowsAndClose(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("camp-%d", i+1)
		w, err := s.StartCampaign(Meta{ID: id, Project: "p"})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				_ = w.Append(testRecord(j))
			}
			_ = w.Abort(StatusCanceled)
		}()
		go func() {
			defer wg.Done()
			if err := s.Follow(ctx, id, 0, func(int64, json.RawMessage) error { return nil }); err != nil {
				t.Errorf("follow %s: %v", id, err)
			}
		}()
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
	for _, meta := range s.List() {
		if meta.Status == StatusRunning {
			t.Errorf("%s still running after Close", meta.ID)
		}
	}
}
