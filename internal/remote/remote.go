// Package remote defines the wire protocol between the profipyd control
// plane and remote execution workers: the serialized campaign spec a
// worker rebuilds its execution context from, the worker registration
// and lease messages, and the NDJSON record envelope workers stream
// results back with.
//
// The protocol is deliberately pull-based and idempotent. Workers
// register, then ask for shard leases; the control plane never dials a
// worker. An idle worker's lease request names how long it would have
// slept before asking again (?wait=<ms>) and the control plane holds the
// request that long, answering the moment a shard becomes pending. A
// shard costs one exchange: its completion carries the shard's last
// records as an NDJSON body and is answered with the worker's next lease
// (or 204); record batches before that are for shards longer than a
// batch. A worker names the project digests it has prepared
// (…/spec?have=) and gets the spec without the files it already holds.
// Every lease carries a fencing token, every record envelope
// carries its plan index, and the control plane deduplicates by index —
// so a lease that expires mid-shard and is re-dispatched to another
// worker can only ever fill holes, never corrupt or duplicate records.
// Experiment seeds derive from the campaign seed plus the plan index,
// so any worker executing any index produces the same record bytes.
package remote

import (
	"crypto/sha256"
	"encoding/hex"

	"profipy/internal/analysis"
	"profipy/internal/faultmodel"
	"profipy/internal/scanner"
)

// CampaignSpec is the serialized form of a campaign's execution phase:
// everything a worker needs to rebuild the campaign Runner and run any
// experiment by plan index. The control plane resolves scan, sampling
// and coverage itself and ships the verdicts, so worker-side Runners
// derive the exact same plan (PlanHash proves it).
type CampaignSpec struct {
	Name string `json:"name"`
	// Files is the full container file set (target + workload sources),
	// keyed by container path. JSON transports the bytes as base64.
	// A worker that named ProjectDigest among the projects it holds gets
	// the spec without them.
	Files     map[string][]byte `json:"files,omitempty"`
	ScanFiles []string          `json:"scanFiles,omitempty"`
	Faultload []faultmodel.Spec `json:"faultload"`

	// Workload configuration. Env functions don't serialize; EnvName
	// names a well-known host environment ("kvclient", "plain") the
	// worker resolves locally.
	Entry         string   `json:"entry"`
	WorkloadFiles []string `json:"workloadFiles,omitempty"`
	TimeoutNS     int64    `json:"timeoutNs,omitempty"`
	MaxSteps      int64    `json:"maxSteps,omitempty"`
	WallBudgetNS  int64    `json:"wallBudgetNs,omitempty"`
	Rounds        int      `json:"rounds,omitempty"`
	EnvName       string   `json:"envName,omitempty"`

	// Image resource profile (files are filled in per experiment).
	ImageName   string `json:"imageName,omitempty"`
	ImageMemMB  int    `json:"imageMemMb,omitempty"`
	ImageIOMBps int    `json:"imageIoMbps,omitempty"`

	Seed       int64 `json:"seed"`
	SampleN    int   `json:"sampleN,omitempty"`
	ReducePlan bool  `json:"reducePlan,omitempty"`

	// Covered is the control plane's coverage verdict map; workers use
	// it verbatim instead of re-running the coverage phase.
	Covered map[string]bool `json:"covered,omitempty"`

	// ProjectDigest is campaign.ProjectDigest over Files, ScanFiles and
	// WorkloadFiles: the key under which both sides keep the parsed and
	// compiled project between campaigns. Empty from a control plane
	// that keeps none; the spec then always carries its files.
	ProjectDigest string `json:"projectDigest,omitempty"`

	// PlanHash fingerprints the control plane's post-reduction
	// exec-point list. A worker whose rebuilt Runner derives a
	// different hash refuses the lease instead of shipping records from
	// a divergent plan.
	PlanHash string `json:"planHash"`
	// NumExperiments is the control plane's exec-point count, shipped
	// so workers can sanity-check shard bounds before executing.
	NumExperiments int `json:"numExperiments"`
}

// PlanHash fingerprints an exec-point list: the sha256 over each
// point's stable identity (file, function, statement address and spec
// name), in plan order. Both sides compute it over their own view of
// the plan; equality means every index maps to the same experiment.
func PlanHash(points []scanner.InjectionPoint) string {
	h := sha256.New()
	for _, pt := range points {
		h.Write([]byte(pt.ID()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RegisterRequest announces a worker to the control plane.
type RegisterRequest struct {
	// Name is a human-readable worker label (hostname, pod name);
	// the control plane assigns the authoritative ID.
	Name string `json:"name,omitempty"`
	// Parallel is the worker's container parallelism (informational).
	Parallel int `json:"parallel,omitempty"`
}

// RegisterResponse carries the worker's identity and the protocol
// cadence the control plane expects.
type RegisterResponse struct {
	ID string `json:"id"`
	// LeaseTTLMS is how long a shard lease stays valid without a
	// heartbeat before the control plane expires and re-dispatches it.
	LeaseTTLMS int64 `json:"leaseTtlMs"`
	// HeartbeatMS is the interval the worker should heartbeat at
	// (a fraction of the lease TTL).
	HeartbeatMS int64 `json:"heartbeatMs"`
	// PollMS is the suggested lease-poll interval while idle.
	PollMS int64 `json:"pollMs"`
}

// Lease grants a worker one contiguous shard of a campaign's plan.
type Lease struct {
	Campaign string `json:"campaign"`
	Shard    int    `json:"shard"`
	// Lo and Hi are the shard's half-open experiment index range
	// [Lo, Hi) into the campaign's post-reduction plan.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Token fences the lease: record ingestion and completion must
	// quote it, and a token from an expired lease is rejected, so a
	// worker that lost its lease (and its re-dispatched successor)
	// cannot interleave corrupt state.
	Token string `json:"token"`
	// PlanHash echoes the campaign spec's plan fingerprint.
	PlanHash string `json:"planHash"`
	// ExpiresMS is the lease deadline in milliseconds from grant;
	// informational — the control plane's clock is authoritative.
	ExpiresMS int64 `json:"expiresMs"`
}

// Execution-path kinds carried in record envelopes: which injection
// path the experiment ran. KindLocal marks records produced by the
// control plane's in-process fallback (its own Runner accounts those).
const (
	KindMutated  = "mutated"  // compile-time source mutation ran
	KindInjected = "injected" // runtime injector table ran
	KindLocal    = "local"    // produced by the local fallback path
	KindError    = ""         // experiment aborted before execution
)

// Fork outcomes carried in record envelopes: whether the experiment's
// round 1 resumed from its site's prefix snapshot. Workers from before
// the field existed omit it, which reads as ForkNone.
const (
	ForkHit  = "hit"  // resumed from the snapshot
	ForkMiss = "miss" // tried to, fell back to a full run
	ForkNone = ""     // the site has no prefix; ran in full
)

// RecordLine is one experiment result in a worker's NDJSON record
// stream: the plan index, the execution-path kind (KindMutated /
// KindInjected / ""), the fork outcome (ForkHit / ForkMiss / "") and
// the record itself. Ingestion deduplicates by index, so retransmits
// after a transport error are harmless.
type RecordLine struct {
	Idx  int             `json:"idx"`
	Kind string          `json:"kind,omitempty"`
	Fork string          `json:"fork,omitempty"`
	Rec  analysis.Record `json:"rec"`
}

// WorkerInfo is the control plane's view of one registered worker.
type WorkerInfo struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	Parallel int    `json:"parallel,omitempty"`
	// Live reports whether the worker heartbeated within the lease TTL.
	Live bool `json:"live"`
	// LastSeenMS is milliseconds since the last heartbeat.
	LastSeenMS int64 `json:"lastSeenMs"`
	// Shards counts shards currently leased to the worker.
	Shards int `json:"shards"`
}
