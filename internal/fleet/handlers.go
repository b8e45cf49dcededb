package fleet

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"profipy/internal/remote"
)

// maxBody bounds a worker-facing request body, like the API's.
const maxBody = 16 << 20

// Mount registers the worker-facing HTTP API on mux. All routes live
// under /api/v1/workers and speak the wire types of internal/remote.
// records and complete carry campaign, shard and fencing token in the
// query and an NDJSON stream of remote.RecordLine as body.
//
//	POST /api/v1/workers                          register       → RegisterResponse
//	GET  /api/v1/workers                          list           → []WorkerInfo
//	POST /api/v1/workers/{id}/heartbeat           renew liveness → 204 (410 unknown worker)
//	POST /api/v1/workers/{id}/lease?wait=<ms>     pull a shard   → Lease, or 204 after at most wait (410 unknown worker)
//	GET  /api/v1/workers/campaigns/{camp}/spec    campaign spec  → CampaignSpec (?have=<digest>… elides held files)
//	POST /api/v1/workers/{id}/records             NDJSON batch   → 202 (410 stale lease)
//	POST /api/v1/workers/{id}/complete            last records + shard done → next Lease or 204 (410 stale lease)
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /api/v1/workers", c.handleRegister)
	mux.HandleFunc("GET /api/v1/workers", c.handleList)
	mux.HandleFunc("POST /api/v1/workers/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /api/v1/workers/{id}/lease", c.handleLease)
	mux.HandleFunc("GET /api/v1/workers/campaigns/{camp}/spec", c.handleSpec)
	mux.HandleFunc("POST /api/v1/workers/{id}/records", c.handleRecords)
	mux.HandleFunc("POST /api/v1/workers/{id}/complete", c.handleComplete)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// rejectBody answers a request whose body could not be taken: 413 when
// it ran into maxBody, 400 otherwise.
func (c *Coordinator) rejectBody(w http.ResponseWriter, what string, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) || errors.Is(err, bufio.ErrTooLong) {
		c.met.reject("too_large")
		http.Error(w, what+": body over 16 MiB", http.StatusRequestEntityTooLarge)
		return
	}
	c.met.reject("malformed")
	http.Error(w, what+": "+err.Error(), http.StatusBadRequest)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req remote.RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		c.rejectBody(w, "bad register request", err)
		return
	}
	writeJSON(w, http.StatusOK, c.RegisterWorker(req))
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Workers())
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !c.Heartbeat(r.PathValue("id")) {
		// 410: the worker is unknown (coordinator restarted); it must
		// re-register rather than keep heartbeating into the void.
		http.Error(w, "unknown worker", http.StatusGone)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleLease holds the request for up to ?wait=<ms> while nothing is
// pending — never past half of what a deadline on the request (the
// API's timeout wrapper) leaves.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	ms, _ := strconv.Atoi(r.URL.Query().Get("wait")) // absent or malformed: do not wait
	wait := time.Duration(ms) * time.Millisecond
	if dl, ok := r.Context().Deadline(); ok {
		wait = min(wait, time.Until(dl)/2)
	}
	lease, ok, err := c.Lease(r.Context(), r.PathValue("id"), wait)
	switch {
	case err != nil:
		http.Error(w, "unknown worker", http.StatusGone)
	case ok:
		writeJSON(w, http.StatusOK, lease)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	spec, ok := c.Spec(r.PathValue("camp"), r.URL.Query()["have"])
	if !ok {
		http.Error(w, "unknown campaign", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, spec)
}

// shardBatch reads what records and complete share: the (campaign,
// shard, token) triple from the query — so the body stays a pure record
// stream — and the NDJSON body, bounded by maxBody. It has answered the
// request when ok is false.
func (c *Coordinator) shardBatch(w http.ResponseWriter, r *http.Request) (campaign string, shard int, token string, lines []remote.RecordLine, ok bool) {
	q := r.URL.Query()
	campaign, token = q.Get("campaign"), q.Get("token")
	shard, err := strconv.Atoi(q.Get("shard"))
	if err != nil || campaign == "" || token == "" {
		http.Error(w, "request needs campaign, shard and token", http.StatusBadRequest)
		return
	}
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, maxBody))
	sc.Buffer(make([]byte, 0, 64*1024), maxBody)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ln remote.RecordLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			c.rejectBody(w, "bad record line", err)
			return
		}
		lines = append(lines, ln)
	}
	if err := sc.Err(); err != nil {
		c.rejectBody(w, "reading record stream", err)
		return
	}
	return campaign, shard, token, lines, true
}

// handleRecords ingests one intermediate batch of a shard longer than a
// batch.
func (c *Coordinator) handleRecords(w http.ResponseWriter, r *http.Request) {
	campaign, shard, token, lines, ok := c.shardBatch(w, r)
	if !ok {
		return
	}
	if !c.Ingest(campaign, shard, token, lines) {
		http.Error(w, "stale lease", http.StatusGone)
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

// handleComplete ends a shard in one exchange: the body is the shard's
// not-yet-sent records, the answer the worker's next lease.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	campaign, shard, token, lines, ok := c.shardBatch(w, r)
	if !ok {
		return
	}
	next, granted, ok := c.Complete(campaign, shard, token, lines)
	switch {
	case !ok:
		http.Error(w, "stale lease", http.StatusGone)
	case granted:
		writeJSON(w, http.StatusOK, next)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}
