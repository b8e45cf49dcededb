// Package resultstore is the persistence layer of the as-a-service
// workflow and the only record of finished work: an append-only store
// of campaign metadata, experiment record segments and final reports
// (what the API serves finished campaigns from), plus the write-ahead
// job journal, whose terminal lines double as the job history.
// Records arrive as a stream (one Append per completed experiment) and
// are written through to JSONL segment files that roll at a fixed
// record count with an fsync on every roll, so a crash or shutdown
// mid-campaign loses at most the unsynced tail of one segment — and a
// graceful shutdown, which closes the writer, loses nothing. A
// campaign's directory, running metadata and first segment are made in
// the background while its caller builds the campaign (writer.go's
// start), so no file is created on the path to its first record.
// Reads are paginated by a monotonic record cursor and can follow a live
// campaign, which is what the SaaS layer's `?after=<cursor>` record
// pages and NDJSON streams are built on.
//
// With an empty directory path the store runs memory-only: the same
// segment structure and API, no durability. That keeps every consumer
// on one code path whether or not profipyd was given a -data-dir.
//
// Layout under the data directory:
//
//	campaigns/<id>/meta.json            campaign metadata (rewritten at finish)
//	campaigns/<id>/report.json          final analysis report
//	campaigns/<id>/records-NNNNNN.jsonl record segments, SegmentRecords lines each
//	journal.jsonl                       job journal: queued (payload) → running → terminal (snapshot);
//	                                    queued and terminal entries fsync'd, running rides the next sync
//
// A data directory written before the two job logs were merged also
// holds jobs.jsonl (bare terminal snapshots); Open folds it into the
// journal once and removes it.
package resultstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Campaign status values stored in Meta.Status.
const (
	StatusRunning     = "running"
	StatusDone        = "done"
	StatusCanceled    = "canceled"
	StatusFailed      = "failed"
	StatusInterrupted = "interrupted" // found still "running" at reopen
	// StatusDegraded marks a campaign that completed but lost segment
	// durability mid-stream (disk full, EIO): the report and the records
	// still in memory serve reads, Meta.Error carries the write failure.
	StatusDegraded = "degraded"
)

// DefaultSegmentRecords is the segment roll threshold.
const DefaultSegmentRecords = 256

// DefaultRetainCampaigns bounds how many finished campaigns a
// memory-only store keeps (a memory-only store holds every record line
// in RAM; disk-backed stores keep O(open segment) per campaign and are
// never evicted — durability is their point).
const DefaultRetainCampaigns = 64

// ErrNotFound reports an unknown campaign ID.
var ErrNotFound = errors.New("resultstore: no such campaign")

// ErrSegmentShrunk reports a sealed record segment that holds fewer
// complete records on disk than the store counted in it: the file was
// cut behind the store's back.
var ErrSegmentShrunk = errors.New("resultstore: record segment shrank on disk")

// Meta describes one stored campaign.
type Meta struct {
	ID      string `json:"id"`
	Project string `json:"project"`
	// Name is the display name (the project's human name).
	Name   string `json:"name,omitempty"`
	Status string `json:"status"`
	// Records is the number of records appended so far.
	Records int64 `json:"records"`
	// Summary is an opaque blob the API layer attaches at finish time
	// (the saas CampaignSummary).
	Summary json.RawMessage `json:"summary,omitempty"`
	// Phases is the campaign's phase-span timeline (a []trace.Span),
	// stored opaquely so the store stays decoupled from the trace
	// package.
	Phases     json.RawMessage `json:"phases,omitempty"`
	CreatedMS  int64           `json:"createdMs,omitempty"`
	FinishedMS int64           `json:"finishedMs,omitempty"`
	// Error surfaces the stream's first write failure for campaigns that
	// finished degraded.
	Error string `json:"error,omitempty"`
}

// Page is one page of a campaign's record stream.
type Page struct {
	// Records are verbatim stored JSON lines, in append order.
	Records []json.RawMessage `json:"records"`
	// Next is the cursor to pass as `after` for the following page:
	// the count of records consumed so far.
	Next int64 `json:"next"`
	// Total is the number of records stored at read time.
	Total int64 `json:"total"`
	// Done reports that the campaign is finished AND this page reached
	// the end of its records.
	Done bool `json:"done"`
}

// segment is one JSONL record segment. Closed segments of a disk-backed
// store hold no lines in memory (they are re-read on demand); the open
// segment keeps its lines for live reads, bounded by the roll
// threshold. Memory-only stores keep all lines.
type segment struct {
	name  string // file name, "" in memory-only mode
	start int64  // global index of its first record
	count int
	lines [][]byte
}

// campaign is the in-store state of one campaign.
type campaign struct {
	mu   sync.Mutex
	meta Meta
	dir  string // campaign directory, "" in memory-only mode
	segs []*segment
	open *segment
	file *os.File // open segment file (disk mode, while writing)
	seq  int64    // records appended
	live bool     // a Writer is attached
	// start is the background start, pending until a Writer call joins it.
	start *start
	// nextSeg numbers the next segment file. It advances past every
	// segment ever created in the directory — including quarantined
	// ones — so a resumed campaign can never append into a file whose
	// tail may be torn.
	nextSeg int
	// degraded marks a campaign whose segment stream hit a write error:
	// file writes stop, records keep accumulating in memory for reads.
	degraded bool
	watch    chan struct{}
	// report caches the final report bytes once loaded or finished.
	report []byte
	werr   error // first write error, surfaced at Finish
}

// Store is the campaign result store. All methods are safe for
// concurrent use.
type Store struct {
	dir string // "" = memory-only

	// SegmentRecords overrides the roll threshold (tests).
	segmentRecords int
	// retainCampaigns bounds finished campaigns in memory-only mode.
	retainCampaigns int

	mu    sync.Mutex
	camps map[string]*campaign
	order []string

	// The write-ahead job journal (journal.go): journal is the folded
	// view — one entry per pending job and per retained finished job
	// (journalDone of them) — journalOrder their first-journaled order,
	// journalF the fsync-per-append file handle (nil when memory-only),
	// journalBytes the file's size and journalFolded its size after the
	// last compaction, journalDropped the corrupt lines Open skipped.
	// journalMu serializes the writers — fold, append, fsync, compaction —
	// and foldMu is held only while the fold itself changes, so the API's
	// per-request reads of it (Job, JobHistory) never wait for an fsync.
	journalMu      sync.Mutex
	foldMu         sync.Mutex
	journalF       *os.File
	journal        map[string]*JournalEntry
	journalOrder   []string
	journalDone    int
	journalBytes   int64
	journalFolded  int64
	journalDropped int

	// met is set once by Instrument before traffic; its zero value
	// counts nothing.
	met storeMetrics
}

// Open opens (or initializes) a store rooted at dir; an empty dir gives
// a memory-only store. Existing campaign metadata, segment extents and
// the job journal are loaded; campaigns left "running" by a crash are
// surfaced as StatusInterrupted.
func Open(dir string) (*Store, error) {
	s := &Store{
		dir:             dir,
		segmentRecords:  DefaultSegmentRecords,
		retainCampaigns: DefaultRetainCampaigns,
		camps:           map[string]*campaign{},
		journal:         map[string]*JournalEntry{},
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(filepath.Join(dir, "campaigns"), 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s.syncDir(dir) // the entry of campaigns/
	removeTemps(dir)
	if err := s.loadCampaigns(); err != nil {
		return nil, err
	}
	if err := s.loadJournal(); err != nil {
		return nil, err
	}
	return s, nil
}

// SetSegmentRecords adjusts the segment roll threshold for subsequently
// started campaigns (mainly for tests; call before StartCampaign).
func (s *Store) SetSegmentRecords(n int) {
	if n > 0 {
		s.segmentRecords = n
	}
}

// SetRetainCampaigns adjusts how many finished campaigns a memory-only
// store keeps before evicting the oldest (no effect on disk-backed
// stores).
func (s *Store) SetRetainCampaigns(n int) {
	if n > 0 {
		s.retainCampaigns = n
	}
}

// evictMemory drops the oldest finished campaigns beyond the retention
// limit in memory-only mode, where every record line lives in RAM.
// Live campaigns are never evicted; disk-backed stores are untouched.
func (s *Store) evictMemory() {
	if s.dir != "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	excess := len(s.order) - s.retainCampaigns
	if excess <= 0 {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		c := s.camps[id]
		c.mu.Lock()
		live := c.live
		c.mu.Unlock()
		if excess > 0 && !live {
			delete(s.camps, id)
			excess--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

func (s *Store) loadCampaigns() error {
	entries, err := os.ReadDir(filepath.Join(s.dir, "campaigns"))
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		cdir := filepath.Join(s.dir, "campaigns", e.Name())
		removeTemps(cdir)
		metaPath := filepath.Join(cdir, "meta.json")
		metaData, err := os.ReadFile(metaPath)
		var meta Meta
		if err != nil || json.Unmarshal(metaData, &meta) != nil || meta.ID == "" {
			// Torn or missing meta. The meta write is atomic, so this is
			// either a half-created campaign directory (no records — skip
			// it) or real corruption next to surviving segments; those
			// records are too valuable to drop, so quarantine the bad
			// meta and resurrect the campaign as interrupted.
			if segs, _ := filepath.Glob(filepath.Join(cdir, "records-*.jsonl")); len(segs) == 0 {
				continue
			}
			if metaData != nil {
				if rerr := quarantine(metaPath); rerr != nil {
					return fmt.Errorf("resultstore: quarantining corrupt meta: %w", rerr)
				}
			}
			slog.Warn("resultstore: rebuilt campaign with corrupt meta",
				"campaign", e.Name())
			meta = Meta{ID: e.Name(), Status: StatusInterrupted}
		}
		if meta.Status == StatusRunning {
			meta.Status = StatusInterrupted
		}
		if _, dup := s.camps[meta.ID]; dup || sanitizeID(meta.ID) != nil || meta.ID != e.Name() {
			continue // meta claiming another directory's identity
		}
		c := &campaign{meta: meta, dir: cdir}
		if err := c.loadSegments(); err != nil {
			return err
		}
		c.meta.Records = c.seq
		s.camps[meta.ID] = c
		s.order = append(s.order, meta.ID)
	}
	// Stable: IDs without a number keep ReadDir's name order.
	sort.SliceStable(s.order, func(i, j int) bool { return Seq(s.order[i]) < Seq(s.order[j]) })
	return nil
}

// removeTemps deletes the temp files a crash left in dir between their
// creation and their rename (a torn atomic write).
func removeTemps(dir string) {
	names, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	for _, name := range names {
		_ = os.Remove(name)
	}
}

// Seq is the number an ID such as "camp-12" or "job-12" ends in, 0 when
// it ends in none. The service numbers jobs from one counter and names
// each campaign after its job, so ordering by Seq is creation order
// where ordering the strings is not ("camp-10" < "camp-2").
func Seq(id string) int {
	n, _ := strconv.Atoi(id[strings.LastIndexByte(id, '-')+1:])
	return n
}

// loadSegments scans the campaign directory's record segments, counting
// complete lines (a torn trailing write is ignored) and recording each
// segment's extent; line data is not retained. A segment containing a
// corrupt interior line (bit rot, partial overwrite) is quarantined —
// renamed to <name>.bad and skipped — so one damaged file costs its own
// records, never the whole campaign restore. Quarantined names count
// when numbering the next segment.
func (c *campaign) loadSegments() error {
	names, err := filepath.Glob(filepath.Join(c.dir, "records-*.jsonl*"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	var start int64
	for _, path := range names {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(path), "records-%d.jsonl", &idx); err == nil && idx >= c.nextSeg {
			c.nextSeg = idx + 1
		}
		if !strings.HasSuffix(path, ".jsonl") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("resultstore: %w", err)
		}
		lines := completeLines(data)
		valid := true
		for _, line := range lines {
			if !json.Valid(line) {
				valid = false
				break
			}
		}
		if !valid {
			if rerr := quarantine(path); rerr != nil {
				return fmt.Errorf("resultstore: quarantining corrupt segment: %w", rerr)
			}
			slog.Warn("resultstore: quarantined corrupt record segment",
				"campaign", c.meta.ID, "segment", filepath.Base(path), "lines", len(lines))
			continue
		}
		count := len(lines)
		c.segs = append(c.segs, &segment{name: filepath.Base(path), start: start, count: count})
		start += int64(count)
	}
	c.seq = start
	return nil
}

// quarantine moves a corrupt file aside to the first free name of
// <path>.bad, <path>.bad.1, …: os.Rename replaces its target, and an
// earlier quarantine's evidence must survive a later one.
func quarantine(path string) error {
	bad := path + ".bad"
	for i := 1; ; i++ {
		_, err := os.Lstat(bad)
		if errors.Is(err, fs.ErrNotExist) {
			return os.Rename(path, bad)
		}
		if err != nil {
			return err
		}
		bad = fmt.Sprintf("%s.bad.%d", path, i)
	}
}

// completeLines splits JSONL data into its newline-terminated lines,
// dropping a torn trailing fragment.
func completeLines(data []byte) [][]byte {
	var lines [][]byte
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return lines
		}
		lines = append(lines, data[:i])
		data = data[i+1:]
	}
}

// List returns the metadata of every stored campaign in the order of
// the IDs' numbers (creation order), live and after a reopen alike.
func (s *Store) List() []Meta {
	s.mu.Lock()
	camps := make([]*campaign, 0, len(s.order))
	for _, id := range s.order {
		camps = append(camps, s.camps[id])
	}
	s.mu.Unlock()
	out := make([]Meta, len(camps))
	for i, c := range camps {
		c.mu.Lock()
		out[i] = c.meta
		c.mu.Unlock()
	}
	return out
}

// Get returns one campaign's metadata.
func (s *Store) Get(id string) (Meta, bool) {
	c, ok := s.camp(id)
	if !ok {
		return Meta{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta, true
}

func (s *Store) camp(id string) (*campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.camps[id]
	return c, ok
}

// Report returns a campaign's final report JSON, or ErrNotFound /
// an error when the campaign has no report (yet).
func (s *Store) Report(id string) (json.RawMessage, error) {
	c, ok := s.camp(id)
	if !ok {
		return nil, ErrNotFound
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.report != nil {
		return c.report, nil
	}
	if c.dir == "" {
		return nil, fmt.Errorf("resultstore: campaign %s has no report", id)
	}
	data, err := os.ReadFile(filepath.Join(c.dir, "report.json"))
	if err != nil {
		return nil, fmt.Errorf("resultstore: campaign %s has no report: %w", id, err)
	}
	c.report = data
	return data, nil
}

// Records returns one page of a campaign's record stream: up to limit
// records after the cursor (after = records already consumed; 0 starts
// at the beginning). limit <= 0 selects a default of 100.
func (s *Store) Records(id string, after int64, limit int) (Page, error) {
	c, ok := s.camp(id)
	if !ok {
		return Page{}, ErrNotFound
	}
	if limit <= 0 {
		limit = 100
	}
	if after < 0 {
		after = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	page := Page{Next: after, Total: c.seq}
	idx := after
	for idx < c.seq && len(page.Records) < limit {
		seg := c.segmentAt(idx)
		if seg == nil {
			break
		}
		lines, err := c.segmentLines(seg)
		if err != nil {
			return Page{}, err
		}
		for _, line := range lines[idx-seg.start:] {
			if len(page.Records) >= limit {
				break
			}
			page.Records = append(page.Records, json.RawMessage(line))
			idx++
		}
	}
	page.Next = idx
	page.Done = !c.live && idx >= c.seq
	return page, nil
}

// segmentAt finds the segment containing global record index idx;
// callers hold c.mu.
func (c *campaign) segmentAt(idx int64) *segment {
	if c.open != nil && idx >= c.open.start {
		return c.open
	}
	i := sort.Search(len(c.segs), func(i int) bool {
		return c.segs[i].start+int64(c.segs[i].count) > idx
	})
	if i == len(c.segs) {
		return nil
	}
	return c.segs[i]
}

// segmentLines returns a segment's record lines, reading the file for
// closed disk-backed segments; callers hold c.mu.
func (c *campaign) segmentLines(seg *segment) ([][]byte, error) {
	if seg.lines != nil || seg.count == 0 {
		return seg.lines, nil
	}
	data, err := os.ReadFile(filepath.Join(c.dir, seg.name))
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	lines := completeLines(data)
	if len(lines) < seg.count {
		return nil, fmt.Errorf("%w: %s holds %d complete records, want %d", ErrSegmentShrunk, seg.name, len(lines), seg.count)
	}
	return lines[:seg.count], nil
}

// watchChan returns the channel closed on the campaign's next append or
// finish; callers hold c.mu.
func (c *campaign) watchChan() chan struct{} {
	if c.watch == nil {
		c.watch = make(chan struct{})
	}
	return c.watch
}

// notifyLocked wakes all followers; callers hold c.mu.
func (c *campaign) notifyLocked() {
	if c.watch != nil {
		close(c.watch)
		c.watch = nil
	}
}

func segName(i int) string { return fmt.Sprintf("records-%06d.jsonl", i) }

// sanitizeID rejects campaign IDs that would escape the campaigns/
// directory.
func sanitizeID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") {
		return fmt.Errorf("resultstore: invalid campaign id %q", id)
	}
	return nil
}
