package kvclient

import (
	"fmt"

	"profipy/internal/analysis"
	"profipy/internal/campaign"
	"profipy/internal/faultmodel"
	"profipy/internal/interp"
	"profipy/internal/remote"
	"profipy/internal/sandbox"
	"profipy/internal/workload"
)

// WorkloadTimeoutNS is the per-round virtual deadline. The paper's
// experiments took 10–120s, the worst case being a hang killed by the
// timeout; virtual time reproduces that scale deterministically.
const WorkloadTimeoutNS = 240_000_000_000 // 240s virtual

// WorkloadMaxSteps is the per-round interpreter step budget.
const WorkloadMaxSteps = 20_000_000

// WorkloadConfig returns the §V workload configuration: deploy the etcd
// server, upload and query key-value pairs of different kinds (dirs,
// sub-keys, TTL, CAS), with consistency checks.
func WorkloadConfig() workload.Config {
	return workload.Config{
		Entry:     "Workload",
		Files:     []string{FileClient, FileLock, FileAuth, FileWorkload},
		TimeoutNS: WorkloadTimeoutNS,
		MaxSteps:  WorkloadMaxSteps,
		Env: func(it *interp.Interp, c *sandbox.Container) {
			InstallEnv(it, c)
		},
		CaptureEnv: CaptureEnv,
		RestoreEnv: RestoreEnv,
	}
}

// AnalysisConfig returns the failure classification of §V: the failure
// modes the paper discusses, as log/exception patterns, plus the
// component map for the propagation metric.
func AnalysisConfig() analysis.Config {
	return analysis.Config{
		ErrorPattern: "ERROR",
		Classes: []analysis.FailureClass{
			{Name: "reconnection-failure", Pattern: "address already in use"},
			{Name: "member-bootstrapped", Pattern: "already been bootstrapped"},
			{Name: "bad-request-400", Pattern: "400 Bad Request"},
			{Name: "key-not-found", Pattern: "EtcdKeyNotFound|Key not found"},
			{Name: "nil-attribute-error", Pattern: "AttributeError"},
			{Name: "unbound-local", Pattern: "UnboundLocalError"},
			{Name: "stale-read", Pattern: "stale read"},
			{Name: "value-mismatch", Pattern: "mismatch|not swapped|not updated"},
			{Name: "hang-timeout", Pattern: "workload timeout"},
		},
		Components: map[string][]string{
			"client":   {FileClient},
			"lock":     {FileLock},
			"auth":     {FileAuth},
			"workload": {FileWorkload},
			"server":   nil, // server logs come from the kvstore substrate
		},
	}
}

// Image returns the container image profile for Python-etcd experiments.
func Image() sandbox.Image {
	return sandbox.Image{Name: "python-etcd", MemMB: 256, IOMBps: 10}
}

// newCampaign assembles the shared configuration of the three campaigns.
func newCampaign(name string, rt *sandbox.Runtime, scan []string,
	faultload []faultmodel.Spec, seed int64) *campaign.Campaign {
	return &campaign.Campaign{
		Name:      name,
		Files:     Sources(),
		ScanFiles: scan,
		Faultload: faultload,
		Workload:  WorkloadConfig(),
		Runtime:   rt,
		Image:     Image(),
		Seed:      seed,
		Analysis:  AnalysisConfig(),
	}
}

// CampaignFromSpec turns a serialized campaign description into the
// campaign that executes it on a host with the given core count. The
// control plane and every fleet worker build theirs here, from the same
// spec value — that is what keeps their plans and records identical —
// and add what only their side has (analysis, sink, executor, metrics).
func CampaignFromSpec(spec remote.CampaignSpec, cores int) (*campaign.Campaign, error) {
	env, captureEnv, restoreEnv, ok := EnvByName(spec.EnvName)
	if !ok {
		return nil, fmt.Errorf("unknown env %q (want kvclient or plain)", spec.EnvName)
	}
	return &campaign.Campaign{
		Name:      spec.Name,
		Files:     spec.Files,
		ScanFiles: spec.ScanFiles,
		Faultload: spec.Faultload,
		Workload: workload.Config{
			Entry:        spec.Entry,
			Files:        spec.WorkloadFiles,
			TimeoutNS:    spec.TimeoutNS,
			MaxSteps:     spec.MaxSteps,
			WallBudgetNS: spec.WallBudgetNS,
			Rounds:       spec.Rounds,
			Env:          env,
			CaptureEnv:   captureEnv,
			RestoreEnv:   restoreEnv,
		},
		Runtime:    sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: cores, Seed: spec.Seed}),
		Image:      sandbox.Image{Name: spec.ImageName, MemMB: spec.ImageMemMB, IOMBps: spec.ImageIOMBps},
		Seed:       spec.Seed,
		SampleN:    spec.SampleN,
		ReducePlan: spec.ReducePlan,
	}, nil
}

// CampaignA builds the §V-A campaign: errors from external APIs, injected
// into the client library modules.
func CampaignA(rt *sandbox.Runtime, seed int64) *campaign.Campaign {
	return newCampaign("campaign-A: errors from external APIs", rt,
		[]string{FileClient, FileLock, FileAuth}, CampaignAFaultload(), seed)
}

// CampaignB builds the §V-B campaign: wrong inputs to the client API,
// injected at the workload's call sites.
func CampaignB(rt *sandbox.Runtime, seed int64) *campaign.Campaign {
	return newCampaign("campaign-B: wrong inputs", rt,
		[]string{FileWorkload}, CampaignBFaultload(), seed)
}

// CampaignC builds the §V-C campaign: resource management bugs (CPU hogs
// after client API calls).
func CampaignC(rt *sandbox.Runtime, seed int64) *campaign.Campaign {
	return newCampaign("campaign-C: resource management bugs", rt,
		[]string{FileWorkload}, CampaignCFaultload(), seed)
}

// CampaignLate builds the late-site benchmark campaign: the §V-A
// faultload restricted to the lock and auth modules, driven by a
// workload whose lock/auth traffic happens only after a long
// ingest-and-verify prefix. Every injection site is therefore first
// reached near the end of round 1 — the case prefix-snapshot fork
// execution (ROADMAP item 1) exists for, and the scenario behind the
// fork on/off row of BENCH_exec.json.
func CampaignLate(rt *sandbox.Runtime, seed int64) *campaign.Campaign {
	c := newCampaign("campaign-late: late-site lock/auth faults", rt,
		[]string{FileLock, FileAuth}, CampaignAFaultload(), seed)
	files := Sources()
	files[FileWorkload] = []byte(LateWorkloadSource)
	c.Files = files
	return c
}

// CampaignR builds the mixed compile-time + runtime campaign: §V-A
// style mutations alongside trigger-based runtime injectors (flaky,
// wear-out, corruption and latency faults) over the client modules.
// Runtime experiments execute the campaign's base compiled program
// unchanged — only the injector table differs per experiment.
func CampaignR(rt *sandbox.Runtime, seed int64) *campaign.Campaign {
	return newCampaign("campaign-R: runtime trigger-based faults", rt,
		[]string{FileClient, FileLock, FileAuth}, CampaignRFaultload(), seed)
}
