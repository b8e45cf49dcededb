package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"profipy/internal/campaign"
	"profipy/internal/faultmodel"
	"profipy/internal/kvclient"
	"profipy/internal/sandbox"
)

// demoProject is the case-study project every profipyd preloads.
const demoProject = "demo-python-etcd"

// campaignKind is one of the §V campaigns: how the library builds it
// (the reference path) and what the service request needs to say to get
// the same campaign.
type campaignKind struct {
	name       string // golden fixture name under testdata/golden
	goldenSeed int64
	build      func(rt *sandbox.Runtime, seed int64) *campaign.Campaign
	faultload  func() []faultmodel.Spec
	scanFiles  []string
	late       bool // uploaded project with the late workload, fork on
}

var (
	kindA = campaignKind{"campaign-a", 101, kvclient.CampaignA, kvclient.CampaignAFaultload,
		[]string{kvclient.FileClient, kvclient.FileLock, kvclient.FileAuth}, false}
	kindB = campaignKind{"campaign-b", 202, kvclient.CampaignB, kvclient.CampaignBFaultload,
		[]string{kvclient.FileWorkload}, false}
	kindC = campaignKind{"campaign-c", 303, kvclient.CampaignC, kvclient.CampaignCFaultload,
		[]string{kvclient.FileWorkload}, false}
	kindR = campaignKind{"campaign-r", 404, kvclient.CampaignR, kvclient.CampaignRFaultload,
		[]string{kvclient.FileClient, kvclient.FileLock, kvclient.FileAuth}, false}
	kindLate = campaignKind{"campaign-late", 707, kvclient.CampaignLate, kvclient.CampaignAFaultload,
		[]string{kvclient.FileLock, kvclient.FileAuth}, true}
)

// lateFiles is the project the late.fork workload uploads: the client
// sources with the late workload script.
func lateFiles() map[string][]byte {
	files := kvclient.Sources()
	files[kvclient.FileWorkload] = []byte(kvclient.LateWorkloadSource)
	return files
}

// campaignOp is one prepared campaign of a cycle: the request body to
// submit and the reference its records must reproduce.
type campaignOp struct {
	kind   campaignKind
	body   []byte
	remote bool
	n      int // plan size
	digest [sha256.Size]byte
}

// requestBody renders the campaign request as raw JSON: only fields a
// user must set, every knob left at the service default.
func (k campaignKind) requestBody(project string, seed int64, remote bool) ([]byte, error) {
	req := map[string]any{
		"project":   project,
		"specs":     k.faultload(),
		"scanFiles": k.scanFiles,
		"entry":     "Workload",
		"workloadFiles": []string{
			kvclient.FileClient, kvclient.FileLock, kvclient.FileAuth, kvclient.FileWorkload,
		},
		"env":     "kvclient",
		"seed":    seed,
		"classes": kvclient.AnalysisConfig().Classes,
	}
	if k.late {
		req["prefixFork"] = true
	}
	if remote {
		req["remote"] = true
		req["waitForWorkers"] = true
		req["shards"] = 8
	}
	return json.Marshal(req)
}

// reference runs the campaign through the independent library path
// (Campaign.Run on the default executor.Local, no fork, no service) and
// returns its records as compact lines in plan order. At the kind's
// golden seed the records must also equal the committed fixture.
func (k campaignKind) reference(root string, nproc int, seed int64) ([][]byte, error) {
	rt := sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: nproc + 1, Seed: 20})
	res, err := k.build(rt, seed).Run()
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", k.name, err)
	}
	data, err := json.Marshal(res.Records)
	if err != nil {
		return nil, err
	}
	lines, err := compactArray(data)
	if err != nil {
		return nil, err
	}
	if seed == k.goldenSeed {
		fixture, err := os.ReadFile(filepath.Join(root, "testdata", "golden", k.name+".json"))
		if err != nil {
			return nil, fmt.Errorf("golden fixture: %w", err)
		}
		golden, err := compactArray(fixture)
		if err != nil {
			return nil, fmt.Errorf("golden fixture %s: %w", k.name, err)
		}
		if canonicalDigest(golden) != canonicalDigest(lines) {
			return nil, fmt.Errorf("reference %s at golden seed %d differs from testdata/golden/%s.json", k.name, seed, k.name)
		}
	}
	return lines, nil
}

// prepare builds the submit-ready op for one kind.
func (k campaignKind) prepare(root string, nproc int, project string, seed int64, remote bool) (campaignOp, error) {
	ref, err := k.reference(root, nproc, seed)
	if err != nil {
		return campaignOp{}, err
	}
	body, err := k.requestBody(project, seed, remote)
	if err != nil {
		return campaignOp{}, err
	}
	return campaignOp{kind: k, body: body, remote: remote, n: len(ref), digest: canonicalDigest(ref)}, nil
}
