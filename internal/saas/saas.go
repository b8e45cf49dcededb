// Package saas implements the software-as-a-service workflow of the
// paper: an HTTP/JSON API through which users upload the target source,
// configure faultloads (DSL specs or saved fault models) and workloads,
// launch campaigns, and retrieve failure-analysis reports. It is the
// substitute for ProFIPy's web front end, minus the browser UI.
package saas

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"profipy/internal/analysis"
	"profipy/internal/campaign"
	"profipy/internal/executor"
	"profipy/internal/faultmodel"
	"profipy/internal/fleet"
	"profipy/internal/kvclient"
	"profipy/internal/obs"
	"profipy/internal/remote"
	"profipy/internal/resultstore"
	"profipy/internal/scanner"
	"profipy/internal/scheduler"
	"profipy/internal/trace"
)

// maxRequestBytes caps request bodies accepted by the JSON endpoints.
const maxRequestBytes = 16 << 20

// maxTextReportBytes caps the plain-text report response; longer
// reports are truncated rune-safely.
const maxTextReportBytes = 1 << 20

// Project is an uploaded target: named source files plus the workload
// entry configuration.
type Project struct {
	ID    string            `json:"id"`
	Name  string            `json:"name"`
	Files map[string]string `json:"files"`
}

// CampaignRequest configures one campaign run.
type CampaignRequest struct {
	Project string `json:"project"`
	// Model selects a registered fault model by name; Specs supplies an
	// inline faultload instead.
	Model string            `json:"model,omitempty"`
	Specs []faultmodel.Spec `json:"specs,omitempty"`
	// ScanFiles restricts scanning to these files (empty = all).
	ScanFiles []string `json:"scanFiles,omitempty"`
	// Workload execution settings.
	Entry         string   `json:"entry"`
	WorkloadFiles []string `json:"workloadFiles,omitempty"`
	TimeoutSec    int64    `json:"timeoutSec,omitempty"`
	// Rounds overrides the workload rounds per experiment (0 keeps the
	// paper's default). Longer workloads stretch campaign wall time —
	// useful for soak and restart testing.
	Rounds int `json:"rounds,omitempty"`
	// Env selects the host environment: "kvclient" (etcd case study) or
	// "plain" (hooks only).
	Env string `json:"env,omitempty"`
	// SampleN caps experiments; ReducePlan prunes uncovered points.
	SampleN    int   `json:"sampleN,omitempty"`
	ReducePlan bool  `json:"reducePlan,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
	// Remote executes the campaign on the registered worker fleet:
	// the plan is cut into Shards lease units (default 8) that remote
	// workers pull, execute and stream back, with lease-expiry
	// re-dispatch on worker failure. With no live workers the campaign
	// degrades to in-process execution; records are byte-identical at
	// any worker count either way. Without Remote, Shards is ignored.
	Remote bool `json:"remote,omitempty"`
	Shards int  `json:"shards,omitempty"`
	// WaitForWorkers keeps a Remote campaign's shards reserved for the
	// fleet even while no worker is live (instead of falling back to
	// in-process execution).
	WaitForWorkers bool `json:"waitForWorkers,omitempty"`
	// ExperimentWallMS arms the per-experiment wall-clock watchdog:
	// a workload round burning more than this much real time is killed
	// and classified as a timeout. 0 leaves the watchdog off (the
	// byte-reproducible default).
	ExperimentWallMS int64 `json:"experimentWallMs,omitempty"`
	// Classes are user-defined failure modes.
	Classes []analysis.FailureClass `json:"classes,omitempty"`
}

// CampaignSummary is the list view of a finished campaign.
type CampaignSummary struct {
	ID       string `json:"id"`
	Project  string `json:"project"`
	Points   int    `json:"points"`
	Covered  int    `json:"covered"`
	Failures int    `json:"failures"`
	// Mutated and Injected split the experiments by injection kind:
	// compile-time source mutation vs runtime trigger-based injection.
	Mutated  int `json:"mutated"`
	Injected int `json:"injected"`
}

// Server is the SaaS API server state. The mutex guards the project
// and model maps only — it is never held across a campaign run or any
// other long operation; queued and running jobs are owned by the
// scheduler, and everything finished (campaign reports, records, job
// history) by the result store, which the API reads on request.
type Server struct {
	mu         sync.RWMutex
	projects   map[string]*Project
	models     *faultmodel.Registry
	nextID     int
	cores      int
	sched      *scheduler.Scheduler
	store      *resultstore.Store
	reg        *obs.Registry
	fleet      *fleet.Coordinator
	reqTimeout time.Duration
	// prepared keeps the parsed and compiled projects of recent
	// campaigns, so the next campaign over the same files starts at
	// its scan's matching pass.
	prepared *campaign.PreparedSet
	// Startup-recovery metrics: jobs re-admitted from the job journal by
	// outcome (requeued/resumed/abandoned), and stored records replayed
	// into resumed campaigns instead of re-executed.
	recJobs     *obs.CounterVec
	recReplayed *obs.Counter
	// testProgressHook, when set (tests only, before serving), observes
	// every campaign progress update after it reaches the scheduler; a
	// blocking hook stalls the campaign, which tests use to inspect
	// intermediate job states deterministically.
	testProgressHook func(campaign.Progress)
}

// Options sizes the server and its campaign scheduler.
type Options struct {
	// Cores is the simulated host core count (experiments run N−1 in
	// parallel within one campaign).
	Cores int
	// Workers is the number of campaigns executed concurrently
	// (scheduler pool size, default 2).
	Workers int
	// QueueDepth bounds pending campaign jobs (default 64).
	QueueDepth int
	// DataDir roots the persistent result store: campaign metadata,
	// record segments, reports and the job journal survive restarts
	// there. Empty keeps the store memory-only (records and streams
	// still work, nothing persists).
	DataDir string
	// Metrics is the registry every layer below the server (scheduler,
	// campaigns, executors, result store, HTTP mux) reports into,
	// scraped at GET /metrics. Nil gets a fresh private registry, so
	// the server is always instrumented.
	Metrics *obs.Registry
	// LeaseTTL is how long a remote worker's shard lease survives
	// without a heartbeat before it is re-dispatched (default 15s).
	LeaseTTL time.Duration
	// Heartbeat is the cadence workers are told to heartbeat at
	// (default LeaseTTL/3).
	Heartbeat time.Duration
	// RequestTimeout bounds non-streaming API requests (default 30s;
	// negative disables). Streaming routes (/stream) and synchronous
	// campaign waits (?wait=true) manage their own lifetimes.
	RequestTimeout time.Duration
}

// NewServer creates a SaaS server simulating a host with the given number
// of cores (experiments run N−1 in parallel) and default scheduler sizing.
func NewServer(cores int) *Server {
	s, err := NewServerWithOptions(Options{Cores: cores})
	if err != nil {
		// Unreachable: without a DataDir the store is memory-only and
		// construction cannot fail.
		panic(err)
	}
	return s
}

// NewServerWithOptions creates a SaaS server with explicit scheduler
// sizing and an optional persistent data directory, reloading any
// campaigns and job history a previous process stored there. Call Close
// to stop the worker pool and seal the store.
func NewServerWithOptions(opt Options) (*Server, error) {
	if opt.Cores <= 0 {
		opt.Cores = 4
	}
	if opt.Metrics == nil {
		opt.Metrics = obs.NewRegistry()
	}
	obs.RegisterRuntimeMetrics(opt.Metrics)
	store, err := resultstore.Open(opt.DataDir)
	if err != nil {
		return nil, err
	}
	store.Instrument(opt.Metrics)
	reqTimeout := opt.RequestTimeout
	if reqTimeout == 0 {
		reqTimeout = 30 * time.Second
	} else if reqTimeout < 0 {
		reqTimeout = 0
	}
	s := &Server{
		projects:   make(map[string]*Project),
		models:     faultmodel.NewRegistry(),
		cores:      opt.Cores,
		store:      store,
		reg:        opt.Metrics,
		reqTimeout: reqTimeout,
		prepared:   new(campaign.PreparedSet),
		fleet: fleet.New(fleet.Config{
			LeaseTTL:  opt.LeaseTTL,
			Heartbeat: opt.Heartbeat,
			Reg:       opt.Metrics,
		}),
	}
	s.recJobs = opt.Metrics.CounterVec("profipy_recovery_jobs_total",
		"Journaled jobs re-admitted at startup, by outcome (requeued, resumed, abandoned).", "outcome")
	s.recReplayed = opt.Metrics.Counter("profipy_recovery_replayed_records_total",
		"Stored records replayed into resumed campaigns instead of re-executed.")
	s.sched = scheduler.New(scheduler.Config{
		Workers:    opt.Workers,
		QueueDepth: opt.QueueDepth,
		Metrics:    opt.Metrics,
		// One fsync'd journal line retires every terminal job (the next
		// boot does not re-admit it) and files its snapshot: from here on
		// the journal, not the scheduler, answers for the job, in this
		// process and after a restart alike. A failed append is counted by
		// the store (write_errors_total) and still folded into its memory;
		// the job's outcome stands either way.
		OnFinish: func(st scheduler.Status) { _ = s.store.AppendJournal(terminalEntry(s.jobView(st))) },
	})
	// Preload the paper's case study as a demo project.
	demo := &Project{ID: "demo-python-etcd", Name: "python-etcd", Files: map[string]string{}}
	for name, data := range kvclient.Sources() {
		demo.Files[name] = string(data)
	}
	s.projects[demo.ID] = demo
	s.recover()
	// New job numbers must clear everything a previous process numbered:
	// the journal's finished jobs (recover re-admitted the pending ones
	// under their own IDs) and every stored campaign, including those of
	// jobs that never made the journal because the process crashed.
	last := 0
	for _, e := range s.store.JobHistory() {
		last = max(last, resultstore.Seq(e.Job))
	}
	for _, meta := range s.store.List() {
		last = max(last, resultstore.Seq(meta.ID))
	}
	s.sched.AdvanceIDs(last)
	return s, nil
}

// terminalEntry is the journal line of a finished job: its terminal
// state (the scheduler's and the journal's state names coincide) and
// the snapshot the API serves from then on.
func terminalEntry(st scheduler.Status) resultstore.JournalEntry {
	snapshot, _ := json.Marshal(st) // plain data: cannot fail
	return resultstore.JournalEntry{
		Job: st.ID, State: string(st.State), Snapshot: snapshot, TimeMS: time.Now().UnixMilli(),
	}
}

// finishedJobView decodes a terminal journal entry's snapshot. The
// store hands snapshots back opaquely, so this is where one corrupted in
// place is caught: anything but the finished job the entry is filed
// under is skipped (a pending entry has no snapshot at all).
func finishedJobView(e resultstore.JournalEntry) (scheduler.Status, bool) {
	var st scheduler.Status
	ok := json.Unmarshal(e.Snapshot, &st) == nil && st.ID == e.Job && st.State.Terminal()
	return st, ok
}

// job puts a question about one job — the scheduler's Status, Wait or
// Cancel — to whoever owns the job: the scheduler while it is queued or
// running, the journal once it has finished. Scheduler first: it lets go
// of a job only after the journal has it, so a job is never in neither.
// Wait lands on the journal when a fast campaign beat its own
// ?wait=true submitter to the end, Cancel when there is nothing left to
// cancel; both then answer with the job as it ended.
func (s *Server) job(ask func(id string) (scheduler.Status, bool), id string) (scheduler.Status, bool) {
	if st, ok := ask(id); ok {
		return s.jobView(st), true
	}
	e, _ := s.store.Job(id)
	return finishedJobView(e)
}

// Close answers the fleet's parked lease requests, stops the campaign
// scheduler — running campaigns are canceled, queued ones finish as
// canceled, the worker pool drains — then seals the result store so
// every streamed record is flushed to disk.
func (s *Server) Close() {
	s.fleet.Close()
	s.sched.Close()
	_ = s.store.Close()
}

// Store exposes the campaign result store (read side: pagination and
// live follows). Never nil.
func (s *Server) Store() *resultstore.Store { return s.store }

// Metrics exposes the server's metric registry (the one behind
// GET /metrics). Never nil.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Fleet exposes the remote-worker coordinator. Never nil.
func (s *Server) Fleet() *fleet.Coordinator { return s.fleet }

// Handler returns the HTTP handler exposing the API, instrumented with
// per-route request metrics, plus the Prometheus scrape endpoint.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("POST /api/v1/projects", s.handleCreateProject)
	mux.HandleFunc("GET /api/v1/projects", s.handleListProjects)
	mux.HandleFunc("POST /api/v1/faultmodels", s.handleCreateModel)
	mux.HandleFunc("GET /api/v1/faultmodels", s.handleListModels)
	mux.HandleFunc("GET /api/v1/faultmodels/{name}", s.handleGetModel)
	mux.HandleFunc("POST /api/v1/campaigns", s.handleRunCampaign)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleListCampaigns)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleGetCampaign)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/text", s.handleGetCampaignText)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/records", s.handleGetCampaignRecords)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/stream", s.handleStreamCampaign)
	mux.HandleFunc("GET /api/v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancelJob)
	s.fleet.Mount(mux)
	// Metrics sit inside the timeout wrapper: TimeoutHandler serves the
	// inner handler with a shallow-copied request, so the mux-set
	// r.Pattern the route label comes from is only visible downstream
	// of it.
	handler := instrumentHTTP(s.reg, mux)
	if s.reqTimeout > 0 {
		// Per-route request timeout: every API route is bounded except
		// the ones that legitimately outlive it — record streaming
		// (needs Flusher, manages its own follow window) and the
		// synchronous campaign wait (bounded by the campaign itself).
		timed := http.TimeoutHandler(handler, s.reqTimeout, `{"error":"request timed out"}`)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/stream") ||
				(r.URL.Path == "/api/v1/campaigns" && r.Method == http.MethodPost && r.URL.Query().Get("wait") == "true") {
				handler.ServeHTTP(w, r)
				return
			}
			timed.ServeHTTP(w, r)
		})
	}
	return handler
}

func (s *Server) handleCreateProject(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var p Project
	if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
		httpError(w, http.StatusBadRequest, "bad project json: %v", err)
		return
	}
	if p.Name == "" || len(p.Files) == 0 {
		httpError(w, http.StatusBadRequest, "project needs a name and files")
		return
	}
	s.mu.Lock()
	s.nextID++
	p.ID = "proj-" + strconv.Itoa(s.nextID)
	s.projects[p.ID] = &p
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]string{"id": p.ID})
}

func (s *Server) handleListProjects(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]map[string]any, 0, len(s.projects))
	ids := make([]string, 0, len(s.projects))
	for id := range s.projects {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := s.projects[id]
		out = append(out, map[string]any{"id": p.ID, "name": p.Name, "files": len(p.Files)})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCreateModel(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var m faultmodel.Model
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		httpError(w, http.StatusBadRequest, "bad model json: %v", err)
		return
	}
	if m.Name == "" {
		httpError(w, http.StatusBadRequest, "model needs a name")
		return
	}
	if err := m.Validate(); err != nil {
		httpError(w, http.StatusUnprocessableEntity, "model does not compile: %v", err)
		return
	}
	s.mu.Lock()
	s.models.Register(&m)
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]string{"name": m.Name})
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	writeJSON(w, http.StatusOK, s.models.Names())
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	m, ok := s.models.Get(r.PathValue("name"))
	s.mu.RUnlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such model")
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// buildCampaign validates a request and assembles the campaign to run.
// On failure it returns an HTTP status and message for the client.
func (s *Server) buildCampaign(req CampaignRequest) (*campaign.Campaign, string, int, string) {
	s.mu.RLock()
	proj, ok := s.projects[req.Project]
	s.mu.RUnlock()
	if !ok {
		return nil, "", http.StatusNotFound, fmt.Sprintf("no such project: %s", req.Project)
	}
	files := make(map[string][]byte, len(proj.Files))
	for name, content := range proj.Files {
		files[name] = []byte(content)
	}
	return s.buildCampaignFrom(req, proj.Name, files)
}

// buildCampaignFrom assembles a campaign from an explicit project-file
// snapshot instead of the live project map — the recovery path rebuilds
// journaled jobs this way, because uploaded projects are in-memory only
// and the journal carries its own copy of the files.
func (s *Server) buildCampaignFrom(req CampaignRequest, projName string, files map[string][]byte) (*campaign.Campaign, string, int, string) {
	specs := req.Specs
	if req.Model != "" {
		s.mu.RLock()
		m, ok := s.models.Get(req.Model)
		s.mu.RUnlock()
		if !ok {
			return nil, "", http.StatusNotFound, fmt.Sprintf("no such fault model: %s", req.Model)
		}
		specs = append(append([]faultmodel.Spec(nil), specs...), m.Specs...)
	}
	if len(specs) == 0 {
		return nil, "", http.StatusBadRequest, "campaign needs specs or a model"
	}
	if req.Entry == "" {
		return nil, "", http.StatusBadRequest, "campaign needs a workload entry function"
	}
	if len(files) == 0 {
		return nil, "", http.StatusBadRequest, "campaign needs project files"
	}
	// One description of the campaign: the spec is what this process
	// builds its Campaign from and, verbatim, what fleet workers rebuild
	// theirs from (kvclient.CampaignFromSpec on both sides). Unset
	// request fields take the case study's workload and image profile.
	image := kvclient.Image()
	spec := remote.CampaignSpec{
		Name:          req.Project,
		Files:         files,
		ScanFiles:     req.ScanFiles,
		Faultload:     specs,
		Entry:         req.Entry,
		WorkloadFiles: req.WorkloadFiles,
		TimeoutNS:     req.TimeoutSec * 1_000_000_000,
		MaxSteps:      kvclient.WorkloadMaxSteps,
		WallBudgetNS:  req.ExperimentWallMS * 1_000_000,
		Rounds:        req.Rounds,
		EnvName:       req.Env,
		ImageName:     req.Project,
		ImageMemMB:    image.MemMB,
		ImageIOMBps:   image.IOMBps,
		Seed:          req.Seed,
		SampleN:       req.SampleN,
		ReducePlan:    req.ReducePlan,
	}
	if len(spec.WorkloadFiles) == 0 {
		spec.WorkloadFiles = scanner.SortedNames(files)
	}
	if spec.TimeoutNS <= 0 {
		spec.TimeoutNS = kvclient.WorkloadTimeoutNS
	}
	if req.Remote {
		spec.ProjectDigest = campaign.ProjectDigest(spec.Files, spec.ScanFiles, spec.WorkloadFiles)
	}
	c, err := kvclient.CampaignFromSpec(spec, s.cores)
	if err != nil {
		return nil, "", http.StatusBadRequest, err.Error()
	}
	c.Analysis = analysis.Config{Classes: req.Classes, Components: map[string][]string{}}
	// The service reads reports from the online aggregator and records
	// from the result store: no reason to materialize the full record
	// slice per campaign.
	c.DiscardRecords = true
	c.Metrics = s.reg
	c.Prepared = s.prepared
	if req.Remote {
		// The distributed engine. The plan context is the one part of
		// the spec still open: the campaign fills it in (SetPlanContext)
		// once scan and coverage ran.
		c.Executor = &executor.Remote{
			Coord:          s.fleet,
			Spec:           spec,
			Shards:         req.Shards,
			LocalWorkers:   s.cores - 1,
			WaitForWorkers: req.WaitForWorkers,
			Reg:            s.reg,
		}
	}
	return c, projName, 0, ""
}

// campaignIDFor derives the campaign ID from its job ID ("job-7" →
// "camp-7"): deterministic before the job runs, so live record streams
// are addressable while the campaign is still executing, and collision
// free across restarts because the scheduler's ID counter starts past
// everything the data directory holds.
func campaignIDFor(jobID string) string {
	return "camp-" + strings.TrimPrefix(jobID, "job-")
}

// summaryFor builds the list-view summary of a finished run.
func summaryFor(id, project string, res *campaign.Result) CampaignSummary {
	return CampaignSummary{
		ID: id, Project: project,
		Points: res.Report.Total, Covered: res.Report.Covered, Failures: res.Report.Failures,
		Mutated: res.Mutated, Injected: res.Injected,
	}
}

// journaledJob is the write-ahead journal payload of an accepted
// campaign job: everything needed to rebuild and re-run (or resume) the
// campaign in a later process. The faultload arrives pre-resolved and
// the project files are snapshotted, because the model registry and the
// project map are in-memory only and may be empty after a restart.
type journaledJob struct {
	Request CampaignRequest   `json:"request"`
	Project string            `json:"project"`
	Files   map[string][]byte `json:"files"`
}

// journalAccepted write-ahead-journals an accepted campaign job as
// queued. Called between Submit and the job-ID handoff that lets the
// task run, so the journal entry is durable before any work starts.
func (s *Server) journalAccepted(jobID string, req CampaignRequest, projName string, c *campaign.Campaign) {
	jreq := req
	jreq.Specs = c.Faultload // resolved: model + inline specs merged
	jreq.Model = ""
	// A marshal failure leaves a nil payload: the lifecycle is journaled
	// anyway and recovery will abandon the job.
	payload, _ := json.Marshal(journaledJob{Request: jreq, Project: projName, Files: c.Files})
	_ = s.store.AppendJournal(resultstore.JournalEntry{
		Job: jobID, State: resultstore.JournalQueued,
		Campaign: campaignIDFor(jobID), Name: req.Project,
		Payload: payload, TimeMS: time.Now().UnixMilli(),
	})
}

// campaignTask builds the scheduler task that runs one campaign.
// jobIDFn supplies the job ID once it is known — a freshly submitted
// task learns it from the handler after Submit returns, a recovered
// task knows it upfront. If the campaign already has records in the
// store (a re-admitted mid-flight job), the task resumes: stored
// records are replayed into the campaign and only the missing
// experiments execute, producing a report byte-identical to an
// uninterrupted run.
func (s *Server) campaignTask(req CampaignRequest, projName string, c *campaign.Campaign, jobIDFn func() string) scheduler.Task {
	return func(ctx context.Context, report func(scheduler.Progress)) error {
		jobID := jobIDFn()
		campID := campaignIDFor(jobID)
		// The remote executor keys its fleet job, leases and record
		// streams by the campaign's public ID, so workers and operators
		// see the same name everywhere.
		if rm, ok := c.Executor.(*executor.Remote); ok {
			rm.CampaignID = campID
		}
		// Every log line below this point carries the job and campaign
		// IDs, so one campaign's records can be grepped out of a busy
		// daemon's output.
		ctx = obs.WithLog(ctx, "job", jobID, "campaign", campID)
		_ = s.store.AppendJournal(resultstore.JournalEntry{
			Job: jobID, State: resultstore.JournalRunning,
			Campaign: campID, Name: req.Project, TimeMS: time.Now().UnixMilli(),
		})
		c.OnProgress = func(p campaign.Progress) {
			report(scheduler.Progress{Phase: p.Phase, Done: p.Done, Total: p.Total})
			if s.testProgressHook != nil {
				s.testProgressHook(p)
			}
		}
		// Stream every record into the store as it completes: live
		// NDJSON followers and record pages see the campaign grow, and
		// a shutdown mid-campaign loses nothing that reached the sink.
		var writer *resultstore.Writer
		var err error
		if meta, ok := s.store.Get(campID); !ok {
			writer, err = s.store.StartCampaign(resultstore.Meta{
				ID: campID, Project: req.Project, Name: projName,
			})
		} else if finished(meta) {
			// The campaign outlived a previous process that crashed after
			// sealing it — only the job's terminal state was lost.
			obs.Log(ctx).Info("campaign already complete, skipping re-run")
			return nil
		} else if writer, err = s.store.ResumeCampaign(campID); err == nil {
			c.Resume = s.loadResume(campID)
			s.recReplayed.Add(float64(len(c.Resume)))
			obs.Log(ctx).Info("resuming campaign from stored records",
				"replayed", len(c.Resume))
		}
		if err != nil {
			// Only a campaign ID the store cannot take (invalid, or owned
			// by another writer) ends up here; disk trouble degrades the
			// campaign inside the store instead.
			return fmt.Errorf("campaign %s: %w", campID, err)
		}
		c.Sink = executor.SinkFunc(func(idx int, rec analysis.Record) {
			_ = writer.Append(rec)
		})
		res, err := c.RunContext(ctx)
		if err != nil {
			status := resultstore.StatusFailed
			if errors.Is(err, context.Canceled) {
				status = resultstore.StatusCanceled
			}
			if aerr := writer.Abort(status); aerr != nil {
				obs.Log(ctx).Error("record persistence failed", "err", aerr)
			}
			return err
		}
		_ = writer.SetPhases(res.Phases)
		// Finish surfaces the stream's first write error: the report and
		// the records still serve from the store's memory, but they will
		// not survive a restart, so make the failure loud.
		if ferr := writer.Finish(resultstore.StatusDone, summaryFor(campID, req.Project, res), res.Report); ferr != nil {
			obs.Log(ctx).Error("record persistence failed", "err", ferr)
		}
		obs.Log(ctx).Info("campaign done",
			"points", res.Report.Total, "covered", res.Report.Covered,
			"failures", res.Report.Failures, "records", res.Mutated+res.Injected,
			"replayed", res.Replayed)
		return nil
	}
}

// loadResume pages every stored record of a campaign back into memory
// for replay. Undecodable lines are skipped — their experiments simply
// re-execute, which reproduces the identical record bytes.
func (s *Server) loadResume(campID string) []analysis.Record {
	var out []analysis.Record
	var after int64
	for {
		page, err := s.store.Records(campID, after, 1000)
		if err != nil || len(page.Records) == 0 {
			return out
		}
		for _, raw := range page.Records {
			var rec analysis.Record
			if json.Unmarshal(raw, &rec) == nil {
				out = append(out, rec)
			}
		}
		if page.Next <= after {
			return out
		}
		after = page.Next
	}
}

// recover replays the write-ahead job journal at startup and re-admits
// every job a previous process accepted but never finished: jobs that
// were still queued re-run from scratch, mid-flight jobs resume from
// their stored records (campaignTask detects the existing campaign).
// Jobs whose payload cannot be rebuilt are journaled as failed so they
// stop pending, with the failure visible in the job history.
func (s *Server) recover() {
	for _, e := range s.store.PendingJobs() {
		outcome := "requeued"
		if e.State == resultstore.JournalRunning {
			outcome = "resumed"
		}
		var payload journaledJob
		var c *campaign.Campaign
		projName := ""
		status, msg := 0, ""
		if err := json.Unmarshal(e.Payload, &payload); err != nil || payload.Request.Project == "" {
			status, msg = http.StatusBadRequest, "journal payload unusable"
		} else {
			c, projName, status, msg = s.buildCampaignFrom(payload.Request, payload.Project, payload.Files)
		}
		if status == 0 {
			task := s.campaignTask(payload.Request, projName, c, func() string { return e.Job })
			if err := s.sched.SubmitID(e.Job, payload.Request.Project, task); err != nil {
				status, msg = http.StatusServiceUnavailable, err.Error()
			}
		}
		if status != 0 {
			outcome = "abandoned"
			obs.Log(context.Background()).Warn("journaled job abandoned at recovery",
				"job", e.Job, "campaign", e.Campaign, "reason", msg)
			failed := scheduler.Status{
				ID: e.Job, Name: e.Name, State: scheduler.Failed,
				Error:      "recovery failed: " + msg,
				EnqueuedMS: e.TimeMS, FinishedMS: time.Now().UnixMilli(),
			}
			_ = s.store.AppendJournal(terminalEntry(failed))
		} else {
			obs.Log(context.Background()).Info("journaled job re-admitted",
				"job", e.Job, "campaign", e.Campaign, "outcome", outcome)
		}
		s.recJobs.With(outcome).Inc()
	}
}

// retryAfterHint renders the Retry-After seconds of a queue-full 429
// from the scheduler's load estimate, rounded up and clamped to
// [1, 300]; "5" when no campaign has finished yet (nothing to
// estimate from).
func (s *Server) retryAfterHint() string {
	est, ok := s.sched.RetryAfterEstimate()
	if !ok {
		return "5"
	}
	secs := (est + time.Second - 1) / time.Second
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return strconv.FormatInt(int64(secs), 10)
}

// handleRunCampaign validates the request synchronously, enqueues the
// campaign on the scheduler, and returns 202 with a job ID. With
// ?wait=true it blocks until the job finishes and answers like the old
// synchronous API (201 + report).
func (s *Server) handleRunCampaign(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var req CampaignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad campaign json: %v", err)
		return
	}
	c, projName, status, msg := s.buildCampaign(req)
	if status != 0 {
		httpError(w, status, "%s", msg)
		return
	}

	// The campaign ID derives from the job ID, which Submit allocates
	// after the task closure exists; the buffered channel hands it in.
	jobIDCh := make(chan string, 1)
	task := s.campaignTask(req, projName, c, func() string { return <-jobIDCh })
	jobID, err := s.sched.Submit(req.Project, task)
	if err != nil {
		if errors.Is(err, scheduler.ErrQueueFull) {
			// Back-pressure, not an outage: the queue drains as campaigns
			// finish, so tell the client when to come back — queue depth
			// times the recent mean campaign duration, spread across the
			// worker pool, clamped to [1s, 300s]. Before any campaign has
			// finished there is no estimate; fall back to a fixed hint.
			w.Header().Set("Retry-After", s.retryAfterHint())
			httpError(w, http.StatusTooManyRequests, "cannot schedule campaign: %v", err)
			return
		}
		httpError(w, http.StatusServiceUnavailable, "cannot schedule campaign: %v", err)
		return
	}
	// Write-ahead journal the accepted job before the task may proceed
	// (it blocks on the job ID until the send below): a crash after this
	// point leaves a durable record to re-admit the job from.
	s.journalAccepted(jobID, req, projName, c)
	jobIDCh <- jobID

	if r.URL.Query().Get("wait") != "true" {
		writeJSON(w, http.StatusAccepted, map[string]string{"job": jobID})
		return
	}
	s.answerWhenFinished(w, jobID)
}

// answerWhenFinished is the ?wait=true half of a submission: it blocks
// until the job is terminal and answers with the outcome.
func (s *Server) answerWhenFinished(w http.ResponseWriter, jobID string) {
	st, _ := s.job(s.sched.Wait, jobID)
	switch st.State {
	case scheduler.Done:
		rep, _, _ := s.finishedCampaign(st.Campaign)
		writeJSON(w, http.StatusCreated, map[string]any{"id": st.Campaign, "job": jobID, "report": rep})
	case scheduler.Canceled:
		httpError(w, http.StatusConflict, "campaign canceled")
	default:
		httpError(w, http.StatusUnprocessableEntity, "campaign failed: %s", st.Error)
	}
}

// jobView names the job's campaign in a snapshot the scheduler took.
// A done job's is finished; a running job's is already in the result
// store once records stream in, so clients can follow
// /campaigns/{id}/stream before the job is done.
func (s *Server) jobView(st scheduler.Status) scheduler.Status {
	campID := campaignIDFor(st.ID)
	switch st.State {
	case scheduler.Done:
		st.Campaign = campID
	case scheduler.Running:
		if _, streaming := s.store.Get(campID); streaming {
			st.Campaign = campID
		}
	}
	return st
}

// handleListJobs lists the journal's finished jobs and the scheduler's
// live ones as one history in submission order. The live jobs are read
// first: one that finishes meanwhile is in the journal by the time that
// is read, and listed from there.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	live := s.sched.List()
	out := []scheduler.Status{}
	journaled := map[string]bool{}
	for _, e := range s.store.JobHistory() {
		if st, ok := finishedJobView(e); ok {
			out = append(out, st)
			journaled[st.ID] = true
		}
	}
	for _, st := range live {
		if !journaled[st.ID] {
			out = append(out, s.jobView(st))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return resultstore.Seq(out[i].ID) < resultstore.Seq(out[j].ID) })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.job(s.sched.Status, r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.job(s.sched.Cancel, r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// finished reports whether a stored campaign ran to completion and so
// has a report (degraded = complete, but its records lost durability).
func finished(meta resultstore.Meta) bool {
	return meta.Status == resultstore.StatusDone || meta.Status == resultstore.StatusDegraded
}

// finishedCampaign loads a finished campaign's report and metadata from
// the result store — the only place finished campaigns live. ok is
// false for unknown IDs and for campaigns without a report (running,
// interrupted, canceled, failed: those are record-only).
func (s *Server) finishedCampaign(id string) (*analysis.Report, resultstore.Meta, bool) {
	meta, ok := s.store.Get(id)
	if !ok || !finished(meta) {
		return nil, meta, false
	}
	data, err := s.store.Report(id)
	var rep analysis.Report
	if err != nil || json.Unmarshal(data, &rep) != nil {
		return nil, meta, false
	}
	return &rep, meta, true
}

func (s *Server) handleListCampaigns(w http.ResponseWriter, r *http.Request) {
	out := []CampaignSummary{}
	for _, meta := range s.store.List() {
		if !finished(meta) {
			continue
		}
		summary := CampaignSummary{ID: meta.ID, Project: meta.Project}
		if meta.Summary != nil {
			_ = json.Unmarshal(meta.Summary, &summary)
		}
		out = append(out, summary)
	}
	sort.SliceStable(out, func(i, j int) bool { return resultstore.Seq(out[i].ID) < resultstore.Seq(out[j].ID) })
	writeJSON(w, http.StatusOK, out)
}

// campaignView is the GET /campaigns/{id} response: the full analysis
// report (flattened, so existing clients decoding into analysis.Report
// are unaffected) plus the machine-readable phase timeline.
type campaignView struct {
	*analysis.Report
	Phases []trace.Span `json:"phases,omitempty"`
}

func (s *Server) handleGetCampaign(w http.ResponseWriter, r *http.Request) {
	rep, meta, ok := s.finishedCampaign(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	view := campaignView{Report: rep}
	if meta.Phases != nil {
		_ = json.Unmarshal(meta.Phases, &view.Phases)
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleGetCampaignText(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, meta, ok := s.finishedCampaign(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	// Reports grow with component and fault-type cardinality; cap the
	// response (rune-safely — report tables can carry multi-byte file
	// names) so one campaign cannot produce an unbounded text body.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	text := rep.Render("campaign " + id + " (" + meta.Name + ")")
	_, _ = w.Write([]byte(truncateText(text, maxTextReportBytes)))
}

// truncateText cuts s to at most max bytes without splitting a UTF-8
// rune, marking the cut.
func truncateText(s string, max int) string {
	if len(s) <= max {
		return s
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "\n…(truncated)\n"
}

// handleGetCampaignRecords serves one page of a campaign's experiment
// records from the result store. Cursor pagination: `after` is the
// number of records already consumed (the `next` of the previous page),
// `limit` caps the page size.
func (s *Server) handleGetCampaignRecords(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	after, err := queryInt64(r, "after", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad after cursor: %v", err)
		return
	}
	limit, err := queryInt64(r, "limit", 100)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad limit: %v", err)
		return
	}
	if limit > 1000 {
		limit = 1000
	}
	page, err := s.store.Records(id, after, int(limit))
	if err != nil {
		if errors.Is(err, resultstore.ErrNotFound) {
			httpError(w, http.StatusNotFound, "no such campaign")
			return
		}
		httpError(w, http.StatusInternalServerError, "read records: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, page)
}

// handleStreamCampaign serves a campaign's records as live NDJSON: one
// record per line, flushed as experiments complete, ending when the
// campaign finishes (finished campaigns replay and end immediately).
// `?after=<cursor>` resumes mid-stream.
func (s *Server) handleStreamCampaign(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	after, err := queryInt64(r, "after", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad after cursor: %v", err)
		return
	}
	if _, ok := s.store.Get(id); !ok {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	err = s.store.Follow(r.Context(), id, after, func(seq int64, line json.RawMessage) error {
		if _, werr := w.Write(append(line, '\n')); werr != nil {
			return werr
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	// A store-side failure truncates the stream indistinguishably from
	// completion for the client; leave a server-side trace. Client
	// disconnects and shutdown cancellation are normal stream ends.
	if err != nil && !errors.Is(err, context.Canceled) {
		obs.Log(r.Context()).Warn("record stream truncated", "campaign", id, "err", err)
	}
}

// queryInt64 parses an optional integer query parameter.
func queryInt64(r *http.Request, name string, def int64) (int64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	return strconv.ParseInt(raw, 10, 64)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// DemoProjectID is the preloaded case-study project.
const DemoProjectID = "demo-python-etcd"

// DemoCampaignRequest builds the request reproducing one of the §V
// campaigns ("A", "B" or "C") against the demo project, or the mixed
// compile-time + runtime injection campaign ("R"). Runtime faultloads
// need no dedicated API surface: the specs' DSL trigger/action clauses
// and the Trigger/Action spec fields travel through the same
// CampaignRequest.Specs field as compile-time ones.
func DemoCampaignRequest(which string, seed int64) (CampaignRequest, error) {
	req := CampaignRequest{
		Project: DemoProjectID,
		Entry:   "Workload",
		Env:     "kvclient",
		Seed:    seed,
		Classes: kvclient.AnalysisConfig().Classes,
	}
	switch strings.ToUpper(which) {
	case "A":
		req.Specs = kvclient.CampaignAFaultload()
		req.ScanFiles = []string{kvclient.FileClient, kvclient.FileLock, kvclient.FileAuth}
	case "B":
		req.Specs = kvclient.CampaignBFaultload()
		req.ScanFiles = []string{kvclient.FileWorkload}
	case "C":
		req.Specs = kvclient.CampaignCFaultload()
		req.ScanFiles = []string{kvclient.FileWorkload}
	case "R":
		req.Specs = kvclient.CampaignRFaultload()
		req.ScanFiles = []string{kvclient.FileClient, kvclient.FileLock, kvclient.FileAuth}
	default:
		return req, fmt.Errorf("unknown demo campaign %q (want A, B, C or R)", which)
	}
	req.WorkloadFiles = []string{kvclient.FileClient, kvclient.FileLock, kvclient.FileAuth, kvclient.FileWorkload}
	return req, nil
}
