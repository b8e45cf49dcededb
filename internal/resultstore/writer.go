package resultstore

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"profipy/internal/analysis"
)

// Writer appends one campaign's record stream to the store. Append is
// safe to call from the campaign's single emit goroutine; Finish (or
// Abort) must be called exactly once when the campaign ends.
type Writer struct {
	s *Store
	c *campaign
}

// StartCampaign registers a campaign and returns its record writer at
// once; its start persists the metadata with StatusRunning, so a live
// campaign is visible to readers (and to a post-crash reopen) from its
// first record on. The ID is reserved under the store lock before any
// filesystem write, so a duplicate can never clobber an existing
// campaign's persisted metadata. Only an invalid or duplicate ID is an
// error; see join for filesystem failures.
func (s *Store) StartCampaign(meta Meta) (*Writer, error) {
	if err := sanitizeID(meta.ID); err != nil {
		return nil, err
	}
	meta.Status = StatusRunning
	if meta.CreatedMS == 0 {
		meta.CreatedMS = time.Now().UnixMilli()
	}
	c := &campaign{meta: meta, live: true}
	if s.dir != "" {
		c.dir = filepath.Join(s.dir, "campaigns", meta.ID)
	}
	s.mu.Lock()
	if _, exists := s.camps[meta.ID]; exists {
		s.mu.Unlock()
		return nil, fmt.Errorf("resultstore: campaign %s already stored", meta.ID)
	}
	s.begin(c) // before the campaign is published: Close must find its start
	s.camps[meta.ID] = c
	// In Seq order, ties by arrival, as a reopen lays it out.
	i := sort.Search(len(s.order), func(j int) bool { return Seq(s.order[j]) > Seq(meta.ID) })
	s.order = slices.Insert(s.order, i, meta.ID)
	s.mu.Unlock()
	s.evictMemory()
	return &Writer{s: s, c: c}, nil
}

// start makes a campaign's files while its caller builds the campaign:
// the directory (and its entry in campaigns/), the running meta.json
// and the first segment. Its goroutine owns seg and err until done is
// closed.
type start struct {
	done chan struct{}
	name string // the first segment's file name
	seg  *os.File
	err  error
}

// begin launches a campaign's start; callers hold c.mu or own c.
func (s *Store) begin(c *campaign) {
	if c.dir == "" {
		return
	}
	c.nextSeg = max(c.nextSeg, 1)
	st := &start{done: make(chan struct{}), name: segName(c.nextSeg)}
	c.nextSeg++
	c.start = st
	go st.run(s, c.dir, mustJSON(c.meta))
}

func (st *start) run(s *Store, dir string, meta []byte) {
	defer close(st.done)
	if st.err = os.MkdirAll(dir, 0o755); st.err != nil {
		return
	}
	s.syncDir(filepath.Dir(dir))
	if st.err = s.replaceFile(filepath.Join(dir, "meta.json"), meta); st.err != nil {
		return
	}
	s.syncDir(dir)
	st.seg, st.err = os.OpenFile(filepath.Join(dir, st.name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// join waits for the campaign's start, if one is pending, and takes
// over what it made. A start failure degrades the campaign to
// memory-only records, like one mid-stream would: a campaign the store
// has accepted is never un-registered. The wait holds no lock, so reads
// of the campaign go on meanwhile.
func (w *Writer) join() {
	c := w.c
	c.mu.Lock()
	st := c.start
	c.mu.Unlock()
	if st == nil {
		return
	}
	t := time.Now()
	<-st.done
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.start != st {
		return // a concurrent Abort or Store.Close took it over
	}
	c.start = nil
	w.s.met.startWait.ObserveSince(t)
	if st.err != nil {
		w.degradeLocked(st.err)
		return
	}
	c.file = st.seg
	c.open = &segment{name: st.name, start: c.seq, lines: [][]byte{}}
}

// ResumeCampaign reattaches a Writer to a campaign a previous process
// left behind mid-run (StatusInterrupted after a crash or shutdown):
// the surviving segments stay read-only, new records append into a
// fresh segment — never into a file whose trailing write may be torn —
// and the metadata goes back to StatusRunning (by a start, as in
// StartCampaign). The caller is expected to replay the stored records
// into its aggregation and execute only the missing plan indices. It
// fails only by name: unknown, already live, already finished.
func (s *Store) ResumeCampaign(id string) (*Writer, error) {
	c, ok := s.camp(id)
	if !ok {
		return nil, ErrNotFound
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live {
		return nil, fmt.Errorf("resultstore: campaign %s already has a writer", id)
	}
	if c.meta.Status == StatusDone || c.meta.Status == StatusDegraded {
		return nil, fmt.Errorf("resultstore: campaign %s already finished", id)
	}
	c.live = true
	c.meta.Status = StatusRunning
	c.meta.FinishedMS = 0
	c.meta.Error = ""
	s.begin(c)
	return &Writer{s: s, c: c}, nil
}

// Append streams one completed experiment record into the campaign's
// current segment. The line reaches the OS immediately (live readers
// and a graceful shutdown see it); fsync happens on segment roll and at
// Finish; a file is created only when a roll opens the next segment.
// A file-level write failure does not reject the record: the campaign
// degrades to memory-only persistence (reads keep serving, Finish
// reports StatusDegraded) and the first error is retained.
func (w *Writer) Append(rec analysis.Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return w.fail(err)
	}
	c := w.c
	w.join()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.open == nil {
		w.openSegmentLocked()
	}
	if c.file != nil {
		if _, err := c.file.Write(append(line, '\n')); err != nil {
			w.degradeLocked(fmt.Errorf("resultstore: append: %w", err))
		}
	}
	w.s.met.appends.Inc()
	w.s.met.bytes.Add(float64(len(line) + 1))
	c.open.lines = append(c.open.lines, line)
	c.open.count++
	c.seq++
	c.meta.Records = c.seq
	c.notifyLocked()
	if c.open.count >= w.s.segmentRecords {
		w.rollLocked()
		if !c.degraded {
			w.s.syncDir(c.dir) // the rolled segment's entry
		}
	}
	return nil
}

// openSegmentLocked starts the next segment. A failure to create the
// segment file degrades the campaign to memory-only records instead of
// dropping them; callers hold c.mu.
func (w *Writer) openSegmentLocked() {
	c := w.c
	seg := &segment{start: c.seq, lines: [][]byte{}}
	if c.dir != "" && !c.degraded {
		seg.name = segName(c.nextSeg)
		f, err := os.OpenFile(filepath.Join(c.dir, seg.name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			c.open = seg
			w.degradeLocked(fmt.Errorf("resultstore: segment: %w", err))
			return
		}
		c.nextSeg++
		c.file = f
	}
	c.open = seg
}

// rollLocked closes the open segment with an fsync — the durability
// point of the stream; the caller syncs the directory — and forgets the
// segment's line cache in disk mode. A sync or close failure degrades
// the campaign (the lines stay served from memory); callers hold c.mu.
func (w *Writer) rollLocked() {
	c := w.c
	if c.open == nil {
		return
	}
	if c.file != nil {
		err := c.file.Sync()
		if err == nil {
			w.s.met.fsyncs.Inc()
			err = c.file.Close()
			c.file = nil
		}
		if err != nil {
			w.degradeLocked(fmt.Errorf("resultstore: roll segment: %w", err))
		} else {
			c.open.lines = nil // closed segments are re-read from disk
		}
	}
	c.segs = append(c.segs, c.open)
	c.open = nil
}

// degradeLocked switches the campaign to memory-only records after a
// write failure: the file handle is dropped, the first error retained
// for Finish (which will mark the campaign StatusDegraded), and every
// later segment stays in memory so reads keep serving the full stream.
// Callers hold c.mu.
func (w *Writer) degradeLocked(err error) {
	c := w.c
	w.failLocked(err)
	w.s.met.writeErrors.Inc()
	if !c.degraded {
		c.degraded = true
		slog.Warn("resultstore: campaign degraded to memory-only records",
			"campaign", c.meta.ID, "err", err)
	}
	if c.file != nil {
		_ = c.file.Close()
		c.file = nil
	}
}

func (w *Writer) fail(err error) error {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	return w.failLocked(err)
}

func (w *Writer) failLocked(err error) error {
	if w.c.werr == nil {
		w.c.werr = err
	}
	return err
}

// SetPhases attaches the campaign's phase-span timeline (typically a
// []trace.Span) to its metadata. Call before Finish — the timeline is
// persisted with the terminal meta rewrite. A marshal failure is
// recorded as the stream's first error.
func (w *Writer) SetPhases(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return w.fail(fmt.Errorf("resultstore: phases: %w", err))
	}
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	w.c.meta.Phases = data
	return nil
}

// Finish seals the campaign: rolls the open segment (fsync), stores the
// final report and summary, rewrites the metadata with the terminal
// status, syncs the directory once, and only then wakes followers so
// live streams end on a durable seal. It returns the first error the
// stream hit, if any; a successful campaign whose stream degraded
// finishes as StatusDegraded with the error surfaced in Meta.Error.
func (w *Writer) Finish(status string, summary any, report *analysis.Report) error {
	c := w.c
	w.join()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.live {
		return fmt.Errorf("resultstore: campaign %s already finished", c.meta.ID)
	}
	return w.sealLocked(status, summary, report)
}

// sealLocked is Finish on a live campaign; callers hold c.mu.
func (w *Writer) sealLocked(status string, summary any, report *analysis.Report) error {
	c := w.c
	w.rollLocked()
	c.live = false
	if status == StatusDone && c.werr != nil {
		status = StatusDegraded
	}
	if c.werr != nil {
		c.meta.Error = c.werr.Error()
	}
	c.meta.Status = status
	c.meta.FinishedMS = time.Now().UnixMilli()
	if summary != nil {
		if data, err := json.Marshal(summary); err == nil {
			c.meta.Summary = data
		}
	}
	if report != nil {
		c.report = mustJSON(report)
	}
	if c.dir != "" {
		if c.report != nil {
			if err := w.s.replaceFile(filepath.Join(c.dir, "report.json"), c.report); err != nil {
				w.failLocked(err)
			}
		}
		if err := w.s.replaceFile(filepath.Join(c.dir, "meta.json"), mustJSON(c.meta)); err != nil {
			w.failLocked(err)
		}
		w.s.syncDir(c.dir)
	}
	c.notifyLocked()
	return c.werr
}

// Abort seals a campaign that did not complete (canceled, failed,
// shutdown): everything appended so far stays readable, no report is
// stored. A no-op on a sealed campaign, even one Store.Close sealed.
func (w *Writer) Abort(status string) error {
	w.join()
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	if !w.c.live {
		return nil
	}
	return w.sealLocked(status, nil, nil)
}

// Close flushes and seals every still-live campaign (as
// StatusInterrupted) and closes the job journal. Called on daemon
// shutdown after the scheduler has drained.
func (s *Store) Close() error {
	s.mu.Lock()
	camps := make([]*campaign, 0, len(s.camps))
	for _, c := range s.camps {
		camps = append(camps, c)
	}
	s.mu.Unlock()
	var first error
	for _, c := range camps { // Abort is a no-op on sealed campaigns
		if err := (&Writer{s: s, c: c}).Abort(StatusInterrupted); err != nil && first == nil {
			first = err
		}
	}
	s.journalMu.Lock()
	if s.journalF != nil {
		// Every queued and terminal line is already fsync'd; a running
		// line is worth no sync of its own (see AppendJournal).
		if err := s.journalF.Close(); err != nil && first == nil {
			first = err
		}
		s.journalF = nil
	}
	s.journalMu.Unlock()
	return first
}

// Follow streams a campaign's records through fn, starting after the
// cursor, until the campaign finishes and every record has been
// delivered (returns nil), fn returns an error (returned verbatim), or
// ctx is canceled. For an already-finished campaign it replays the
// stored records and returns.
func (s *Store) Follow(ctx context.Context, id string, after int64, fn func(seq int64, line json.RawMessage) error) error {
	c, ok := s.camp(id)
	if !ok {
		return ErrNotFound
	}
	s.met.subscribers.Inc()
	defer s.met.subscribers.Dec()
	cursor := after
	if cursor < 0 {
		cursor = 0
	}
	for {
		// A canceled follower must detach even when the campaign keeps
		// producing: the drain paths below loop without ever reaching the
		// watch select, so the cancellation check lives at the top.
		if err := ctx.Err(); err != nil {
			return err
		}
		page, err := s.Records(id, cursor, 1000)
		if err != nil {
			return err
		}
		for i, line := range page.Records {
			if err := fn(cursor+int64(i)+1, line); err != nil {
				return err
			}
		}
		cursor = page.Next
		if page.Done {
			return nil
		}
		if len(page.Records) > 0 {
			continue // drain before sleeping
		}
		c.mu.Lock()
		if c.seq > cursor || !c.live {
			c.mu.Unlock()
			continue
		}
		watch := c.watchChan()
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-watch:
		}
	}
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // Meta/Report marshaling cannot fail
	}
	return data
}

// replaceFile durably replaces path with data: a temp file in the same
// directory, fsync, atomic rename — a reader after a crash sees either
// the old complete file or the new one, never a torn mix. The caller
// syncs the directory to make the rename itself survive a power cut.
func (s *Store) replaceFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, err = tmp.Write(data); err == nil {
		s.met.fsyncs.Inc()
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so renames and newly created files in it
// are durable. Best effort: some filesystems reject directory fsync,
// and the data files themselves are already synced.
func (s *Store) syncDir(dir string) {
	if dir == "" {
		return
	}
	if d, err := os.Open(dir); err == nil {
		s.met.fsyncs.Inc()
		_ = d.Sync()
		_ = d.Close()
	}
}
