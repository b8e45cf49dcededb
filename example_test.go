// Runnable end-to-end scenarios: go test runs each Example and checks
// what it prints against its Output comment.
package profipy_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"profipy"
	"profipy/internal/kvclient"
	"profipy/internal/saas"
)

// The quickstart: compile a DSL bug specification, scan a target, and
// generate a fault-injected version — the Scan half of the ProFIPy
// workflow, against the Fig. 1a fault type (missing function call).
func Example_quickstart() {
	// The software-under-injection: a resource-cleanup routine in the
	// style of the OpenStack Neutron APIs the paper targets (delete_port
	// & co).
	const target = `package neutron

func ReleaseNetwork(c *Conn, tenant string) {
	ports := ListPorts(c, tenant)
	for _, p := range ports {
		logRelease(p)
		DeletePort(c, p)
		confirm(c, p)
	}
	DeleteSubnet(c, tenant)
	notifyQuota(c, tenant)
}
`
	// Fig. 1a of the paper: omit calls to Delete* APIs that stand between
	// other statements (so removal keeps the program well-formed).
	const mfcSpec = `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=Delete*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`

	// 1. Compile the bug specification into a meta-model.
	if _, err := profipy.Compile("MFC", mfcSpec); err != nil {
		log.Fatalf("compile spec: %v", err)
	}
	fmt.Println("spec MFC compiled")

	// 2. Scan the target for injection points.
	specs := []profipy.Spec{{Name: "MFC", Type: "MFC", Doc: "missing function call", DSL: mfcSpec}}
	files := map[string][]byte{"neutron.go": []byte(target)}
	plan, err := profipy.Scan(files, specs)
	if err != nil {
		log.Fatalf("scan: %v", err)
	}
	fmt.Printf("found %d injection points:\n", plan.Len())
	for i, pt := range plan.Points {
		fmt.Printf("  [%d] %s:%d in %s — %s\n", i, pt.File, pt.Line, pt.Func, pt.Snippet)
	}

	// 3. Generate the mutated version of the first point, with the
	//    run-time trigger so the fault can be switched on and off.
	spec, _ := plan.Spec("MFC")
	mut, err := profipy.Mutate(files["neutron.go"], spec, plan.Points[0], profipy.MutateOptions{Triggered: true})
	if err != nil {
		log.Fatalf("mutate: %v", err)
	}
	fmt.Printf("\noriginal statements: %s\n", mut.Original)
	fmt.Printf("injected statements: %s\n", mut.Mutated)
	fmt.Printf("\n--- mutated source ---\n%s\n", mut.Source)
	// Output:
	// spec MFC compiled
	// found 3 injection points:
	//   [0] neutron.go:4 in ReleaseNetwork — ports := ListPorts(c, tenant)
	//   [1] neutron.go:5 in ReleaseNetwork — for _, p := range ports {
	// 	logRelease(p)
	// 	DeletePort(c, p)
	// 	confirm(c, p)
	// }
	//   [2] neutron.go:6 in ReleaseNetwork — logRelease(p)
	//
	// original statements: ports := ListPorts(c, tenant); for _, p := range ports {
	// 	logRelease(p)
	// 	DeletePort(c, p)
	// 	confirm(c, p)
	// }; DeleteSubnet(c, tenant); notifyQuota(c, tenant)
	// injected statements: if __fault_enabled() {
	// 	ports := ListPorts(c, tenant)
	// 	for _, p := range ports {
	// 		logRelease(p)
	// 		DeletePort(c, p)
	// 		confirm(c, p)
	// 	}
	// 	notifyQuota(c, tenant)
	// } else {
	// 	ports := ListPorts(c, tenant)
	// 	for _, p := range ports {
	// 		logRelease(p)
	// 		DeletePort(c, p)
	// 		confirm(c, p)
	// 	}
	// 	DeleteSubnet(c, tenant)
	// 	notifyQuota(c, tenant)
	// }
	//
	// --- mutated source ---
	// package neutron
	//
	// func ReleaseNetwork(c *Conn, tenant string) {
	// 	if __fault_enabled() {
	// 		ports := ListPorts(c, tenant)
	// 		for _, p := range ports {
	// 			logRelease(p)
	// 			DeletePort(c, p)
	// 			confirm(c, p)
	// 		}
	// 		notifyQuota(c, tenant)
	// 	} else {
	// 		ports := ListPorts(c, tenant)
	// 		for _, p := range ports {
	// 			logRelease(p)
	// 			DeletePort(c, p)
	// 			confirm(c, p)
	// 		}
	// 		DeleteSubnet(c, tenant)
	// 		notifyQuota(c, tenant)
	// 	}
	// }
}

// The paper's case study (§V): three fault injection campaigns against
// the etcd client bindings — errors from external APIs, wrong inputs,
// and resource management bugs — printing the same analyses the paper
// reports (coverage, failures, failure modes, service availability).
func Example_etcdCampaign() {
	rt := profipy.NewRuntime(profipy.RuntimeConfig{Cores: 4, Seed: 20})

	type paperRow struct {
		points, covered, failures int
	}
	campaigns := []struct {
		build func() *profipy.Campaign
		paper paperRow
	}{
		{func() *profipy.Campaign { return kvclient.CampaignA(rt, 101) }, paperRow{26, 13, 12}},
		{func() *profipy.Campaign { return kvclient.CampaignB(rt, 202) }, paperRow{66, 66, 29}},
		{func() *profipy.Campaign { return kvclient.CampaignC(rt, 303) }, paperRow{37, 37, 14}},
	}
	for _, entry := range campaigns {
		c := entry.build()
		res, err := c.Run()
		if err != nil {
			log.Fatalf("%s: %v", c.Name, err)
		}
		fmt.Println(res.Report.Render(c.Name))
		fmt.Printf("paper reported: %d points, %d covered, %d failures\n\n",
			entry.paper.points, entry.paper.covered, entry.paper.failures)
	}
	fmt.Printf("container runtime: %+v\n", rt.Stats())
	// Output:
	// == campaign-A: errors from external APIs ==
	// experiments:            27
	// covered by workload:    15
	// failures (round 1):     12
	// unavailable (round 2):  6
	// service availability:   77.8%
	// failure logging rate:   100.0%
	// failure propagation:    41.7%
	//
	// failure mode distribution:
	//   bad-request-400              1
	//   crash                        4
	//   member-bootstrapped          1
	//   nil-attribute-error          1
	//   reconnection-failure         5
	//   unbound-local                1
	//   value-mismatch               2
	//
	// by fault type:            total  covered  failures  unavailable
	//   MissingFunctionCall           6        3         2            0
	//   MissingParameters            10        6         4            2
	//   ThrowException               11        6         6            4
	//
	// by injected component:    total  covered  failures  unavailable
	//   auth                          7        0         0            0
	//   client                       14        9         7            6
	//   lock                          6        6         5            0
	//
	// paper reported: 26 points, 13 covered, 12 failures
	//
	// == campaign-B: wrong inputs ==
	// experiments:            66
	// covered by workload:    66
	// failures (round 1):     40
	// unavailable (round 2):  1
	// service availability:   98.5%
	// failure logging rate:   100.0%
	// failure propagation:    47.5%
	//
	// failure mode distribution:
	//   bad-request-400              8
	//   crash                        3
	//   key-not-found                9
	//   nil-attribute-error          14
	//   reconnection-failure         1
	//   value-mismatch               6
	//
	// by fault type:            total  covered  failures  unavailable
	//   CorruptKey                   18       18        14            0
	//   CorruptValue                 16       16         5            0
	//   NegativeInteger               2        2         2            0
	//   NilKey                       14       14        14            1
	//   NilValue                     16       16         5            0
	//
	// by injected component:    total  covered  failures  unavailable
	//   workload                     66       66        40            1
	//
	// paper reported: 66 points, 66 covered, 29 failures
	//
	// == campaign-C: resource management bugs ==
	// experiments:            37
	// covered by workload:    37
	// failures (round 1):     16
	// unavailable (round 2):  11
	// service availability:   29.7%
	// failure logging rate:   100.0%
	// failure propagation:    87.5%
	//
	// failure mode distribution:
	//   key-not-found                5
	//   reconnection-failure         1
	//   stale-read                   9
	//   unbound-local                14
	//   value-mismatch               9
	//
	// by fault type:            total  covered  failures  unavailable
	//   CPUHog                       37       37        16           11
	//
	// by injected component:    total  covered  failures  unavailable
	//   workload                     37       37        16           11
	//
	// paper reported: 37 points, 37 covered, 14 failures
	//
	// container runtime: {Created:133 Destroyed:133 Active:0 LeakedReclaims:664}
}

// The programmability that motivates the paper: a user defines a
// project-specific fault model in the DSL (an injected exception type
// from a postmortem, a None/nil return, and an artificial delay), runs a
// sampled campaign against the etcd client, and inspects one failure
// with the Zipkin-style timeline visualization.
func Example_customFaults() {
	// A faultload a team might write after a production incident: the
	// regression-test use case of §I ("introduce regression tests
	// against the fault that caused the failure").
	customFaultload := []profipy.Spec{
		{
			Name: "postmortem-4812", Type: "ThrowException",
			Doc: "reproduce incident 4812: connection pool exhausted during member registration",
			DSL: `
change {
	$VAR#v := $CALL#c{name=urllib.Request}($EXPR#m, $EXPR#u, $EXPR#p)
} into {
	$PANIC{type=PoolExhaustedError; msg=connection pool exhausted}
}`,
		},
		{
			Name: "nil-from-library", Type: "NilReturn",
			Doc: "library call returns nil instead of a response object",
			DSL: `
change {
	$VAR#v := $CALL#c{name=urllib.*}(...)
} into {
	$VAR#v := $NIL
}`,
		},
		{
			Name: "slow-io", Type: "Delay",
			Doc: "file writes take five seconds",
			DSL: `
change {
	$CALL#c{name=osio.WriteFile}(...)
} into {
	$TIMEOUT{ms=5000}
	$CALL#c
}`,
		},
	}

	rt := profipy.NewRuntime(profipy.RuntimeConfig{Cores: 4, Seed: 7})
	c := kvclient.CampaignA(rt, 7)
	c.Name = "custom faultload: postmortem regression campaign"
	c.Faultload = customFaultload
	c.SampleN = 12 // enforce a bound on the number of experiments

	// Record transport spans in every experiment container, by the
	// container's seed: experiment i runs in the one seeded c.Seed+i+1.
	var mu sync.Mutex
	recorders := map[int64]*profipy.TraceRecorder{}
	c.TraceHook = func(ctr *profipy.Container) {
		rec := kvclient.EnableTracing(ctr)
		mu.Lock()
		recorders[ctr.Seed()] = rec
		mu.Unlock()
	}

	res, err := c.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Report.Render(c.Name))

	// Visualise the first failed experiment's API timeline.
	for i, rec := range res.Records {
		if !rec.Failed() {
			continue
		}
		fmt.Printf("failure visualization for %s (%s at %s:%d), first spans:\n",
			rec.FaultType, rec.Point.Spec, rec.Point.File, rec.Point.Line)
		timeline := profipy.Timeline(recorders[c.Seed+int64(i)+1].Spans(), 60)
		lines := strings.SplitAfter(timeline, "\n")
		fmt.Print(strings.Join(lines[:min(len(lines), 6)], ""))
		break
	}
	// Output:
	// == custom faultload: postmortem regression campaign ==
	// experiments:            12
	// covered by workload:    7
	// failures (round 1):     6
	// unavailable (round 2):  4
	// service availability:   66.7%
	// failure logging rate:   100.0%
	// failure propagation:    16.7%
	//
	// failure mode distribution:
	//   crash                        2
	//   nil-attribute-error          1
	//   reconnection-failure         4
	//   unbound-local                1
	//
	// by fault type:            total  covered  failures  unavailable
	//   Delay                         2        1         0            0
	//   NilReturn                     3        1         1            1
	//   ThrowException                7        5         5            3
	//
	// by injected component:    total  covered  failures  unavailable
	//   auth                          4        0         0            0
	//   client                        5        4         4            4
	//   lock                          3        3         2            0
	//
	// failure visualization for ThrowException (postmortem-4812 at etcdclient/client.go:28), first spans:
	// timeline: 1 spans over 0.000 ms (virtual)
	//   urllib/POST /v2/members |=...........................................................|
}

// The runtime injection engine on a mixed faultload: classic
// compile-time mutations (§III source rewriting) run side by side with
// trigger-based runtime faults in one campaign plan. Runtime experiments
// attach an injector table to the campaign's base compiled program —
// same program, different injector table, no per-experiment
// recompilation — and fire probabilistically, after the Nth activation,
// on every Kth activation, or as injected latency.
func Example_runtimeFaults() {
	// One compile-time mutation plus three runtime trigger/action
	// faults. The runtime ones use the DSL's trigger/action clauses;
	// "stale-backend" shows the equivalent Trigger/Action spec fields
	// that the SaaS API exposes.
	mixedFaultload := []profipy.Spec{
		{
			Name: "drop-response", Type: "NilReturn",
			Doc: "compile-time: the HTTP layer returns nil instead of a response",
			DSL: `
change {
	$VAR#v := $CALL#c{name=urllib.*}(...)
} into {
	$VAR#v := $NIL
}`,
		},
		{
			Name: "flaky-network", Type: "RuntimeFlaky",
			Doc: "runtime: functions doing HTTP I/O fail with probability 0.4 per activation",
			DSL: `
change {
	$VAR#v := $CALL#c{name=urllib.*}(...)
} trigger {
	prob(0.4)
} action {
	raise(ConnectTimeoutError, "runtime fault: flaky network")
}`,
		},
		{
			Name: "wear-out", Type: "RuntimeWearOut",
			Doc: "runtime: the 4th and later activations of an I/O function fail",
			DSL: `
change {
	$VAR#v := $CALL#c{name=urllib.*}(...)
} trigger {
	after(3)
} action {
	raise(EtcdConnectionFailed, "runtime fault: connection pool worn out")
}`,
		},
		{
			Name: "stale-backend", Type: "RuntimeLatency",
			Doc:     "runtime: every 2nd activation of an I/O function stalls for 20s of virtual time",
			Trigger: "every(2)",
			Action:  "delay(20s)",
			DSL: `
change {
	$VAR#v := $CALL#c{name=urllib.*}(...)
}`,
		},
	}

	rt := profipy.NewRuntime(profipy.RuntimeConfig{Cores: 4, Seed: 11})
	c := kvclient.CampaignA(rt, 11)
	c.Name = "mixed faultload: compile-time mutations + runtime injectors"
	c.Faultload = mixedFaultload

	res, err := c.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Report.Render(c.Name))
	fmt.Printf("experiments: %d source-mutated, %d runtime-injected (no recompilation)\n\n",
		res.Mutated, res.Injected)

	// Per-experiment injector telemetry: how often each runtime fault's
	// site was entered while armed, and how often its trigger fired.
	shown := 0
	for _, rec := range res.Records {
		if len(rec.Injections) == 0 || !rec.Failed() {
			continue
		}
		act := rec.Injections[0]
		fmt.Printf("%-18s at %s (site %s): %d activations, %d fires -> %s\n",
			rec.FaultType, rec.Point.File, act.Site, act.Activations, act.Fires,
			rec.Result.Round1().Exception)
		shown++
		if shown == 5 {
			break
		}
	}
	// Output:
	// == mixed faultload: compile-time mutations + runtime injectors ==
	// experiments:            40
	// covered by workload:    24
	// failures (round 1):     13
	// unavailable (round 2):  8
	// service availability:   80.0%
	// failure logging rate:   100.0%
	// failure propagation:    0.0%
	//
	// failure mode distribution:
	//   crash                        3
	//   hang-timeout                 1
	//   nil-attribute-error          6
	//   reconnection-failure         8
	//
	// by fault type:            total  covered  failures  unavailable
	//   NilReturn                    10        6         6            4
	//   RuntimeFlaky                 10        6         4            2
	//   RuntimeLatency               10        6         1            1
	//   RuntimeWearOut               10        6         2            1
	//
	// by injected component:    total  covered  failures  unavailable
	//   auth                         12        0         0            0
	//   client                       20       16        10            8
	//   lock                          8        8         3            0
	//
	// runtime injectors:        exps  activations  fires
	//   flaky-network               10            8      4
	//   stale-backend               10           32     14
	//   wear-out                    10           19      9
	//
	// experiments: 10 source-mutated, 30 runtime-injected (no recompilation)
	//
	// RuntimeFlaky       at etcdclient/client.go (site Client.connect): 1 activations, 1 fires -> ConnectTimeoutError
	// RuntimeFlaky       at etcdclient/client.go (site Client.tryOnce): 1 activations, 1 fires -> ConnectTimeoutError
	// RuntimeFlaky       at etcdclient/client.go (site Client.Health): 3 activations, 1 fires -> WorkloadFailed
	// RuntimeWearOut     at etcdclient/client.go (site Client.tryOnce): 11 activations, 8 fires -> WorkloadFailed
	// RuntimeWearOut     at etcdclient/client.go (site Client.Health): 4 activations, 1 fires -> EtcdConnectionFailed
}

// The as-a-service workflow: the profipyd API runs in-process (over
// httptest; `profipyd -addr :8080` serves the same handler on a real
// port) and this client registers a custom fault model, launches a
// campaign against the preloaded python-etcd demo project, follows it
// and fetches the report — the interaction a ProFIPy web user has with
// the service. Only what every run prints the same is printed: no
// address, no timings, no intermediate progress.
func Example_saasServer() {
	srv := saas.NewServer(4)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// 1. Browse the predefined fault models.
	fmt.Println("available fault models:", getText(ts.URL+"/api/v1/faultmodels"))

	// 2. Register a custom fault model through the API.
	model := map[string]any{
		"name":        "lock-faults",
		"description": "lock-recipe omission faults",
		"specs": []map[string]string{
			{"name": "omit-lockfile", "type": "MFC", "dsl": `
change {
	$CALL{name=osio.WriteFile,osio.Remove}(...)
} into {
}`},
		},
	}
	postJSON(ts.URL+"/api/v1/faultmodels", model, nil)
	fmt.Println("registered fault model lock-faults")

	// 3. Enqueue a campaign on the demo project with the custom model.
	// The API answers immediately with a job ID; the campaign runs on
	// the scheduler's worker pool.
	req, err := saas.DemoCampaignRequest("A", 42)
	if err != nil {
		log.Fatal(err)
	}
	req.Specs = nil
	req.Model = "lock-faults"
	var submitted struct {
		Job string `json:"job"`
	}
	postJSON(ts.URL+"/api/v1/campaigns", req, &submitted)
	fmt.Println("campaign enqueued as", submitted.Job)

	// 4. Poll the job, which streams its progress, until it reaches a
	// terminal state.
	var job struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		Campaign string `json:"campaign"`
		Progress struct {
			Phase string `json:"phase"`
			Done  int    `json:"done"`
			Total int    `json:"total"`
		} `json:"progress"`
	}
	for job.State != "done" && job.State != "failed" && job.State != "canceled" {
		time.Sleep(10 * time.Millisecond)
		if err := json.Unmarshal([]byte(getText(ts.URL+"/api/v1/jobs/"+submitted.Job)), &job); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("job %s: %s %s %d/%d experiments\n",
		job.ID, job.State, job.Progress.Phase, job.Progress.Done, job.Progress.Total)
	fmt.Println("campaign finished:", job.Campaign)

	// 5. Page through the persisted experiment records with the cursor
	// API (a live campaign can be followed the same way through
	// /api/v1/campaigns/{id}/stream, one NDJSON record per line).
	var cursor int64
	records := 0
	for {
		var page struct {
			Records []json.RawMessage `json:"records"`
			Next    int64             `json:"next"`
			Done    bool              `json:"done"`
		}
		body := getText(fmt.Sprintf("%s/api/v1/campaigns/%s/records?after=%d&limit=8", ts.URL, job.Campaign, cursor))
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			log.Fatal(err)
		}
		records += len(page.Records)
		cursor = page.Next
		if page.Done {
			break
		}
	}
	fmt.Printf("paged %d experiment records from the result store\n", records)

	// 6. The machine-readable phase timeline that rides along with the
	// report says where the campaign's wall time went.
	var view struct {
		Phases []struct {
			Name      string `json:"name"`
			Component string `json:"component"`
		} `json:"phases"`
	}
	if err := json.Unmarshal([]byte(getText(ts.URL+"/api/v1/campaigns/"+job.Campaign)), &view); err != nil {
		log.Fatal(err)
	}
	fmt.Println("campaign phases:")
	for _, p := range view.Phases {
		fmt.Printf("  %-10s %s\n", p.Name, p.Component)
	}

	// 7. Scrape the Prometheus endpoint the whole pipeline reports
	// into — the same families an operator would dashboard.
	fmt.Println("selected /metrics families:")
	for _, line := range strings.Split(getText(ts.URL+"/metrics"), "\n") {
		if strings.HasPrefix(line, "profipy_campaign_experiments_total") ||
			strings.HasPrefix(line, "profipy_executor_records_total") ||
			strings.HasPrefix(line, "profipy_resultstore_appends_total") ||
			strings.HasPrefix(line, "profipy_scheduler_jobs_finished_total") {
			fmt.Println(" ", line)
		}
	}

	// 8. Fetch the human-readable report.
	fmt.Println(getText(ts.URL + "/api/v1/campaigns/" + job.Campaign + "/text"))
	// Output:
	// available fault models: [
	//   "extras",
	//   "gswfit",
	//   "runtime"
	// ]
	//
	// registered fault model lock-faults
	// campaign enqueued as job-1
	// job job-1: done analyze 5/5 experiments
	// campaign finished: camp-1
	// paged 5 experiment records from the result store
	// campaign phases:
	//   scan       campaign
	//   compile    campaign
	//   coverage   campaign
	//   execute    campaign
	//   aggregate  campaign
	// selected /metrics families:
	//   profipy_campaign_experiments_total{result="ok"} 5
	//   profipy_executor_records_total{executor="local"} 5
	//   profipy_resultstore_appends_total 5
	//   profipy_scheduler_jobs_finished_total{state="done"} 1
	// == campaign camp-1 (python-etcd) ==
	// experiments:            5
	// covered by workload:    3
	// failures (round 1):     2
	// unavailable (round 2):  0
	// service availability:   100.0%
	// failure logging rate:   100.0%
	// failure propagation:    0.0%
	//
	// failure mode distribution:
	//   crash                        2
	//
	// by fault type:            total  covered  failures  unavailable
	//   MFC                           5        3         2            0
	//
	// by injected component:    total  covered  failures  unavailable
	//   etcdclient/auth.go            1        0         0            0
	//   etcdclient/client.go          2        1         0            0
	//   etcdclient/lock.go            2        2         2            0
}

// postJSON posts body as JSON and decodes the answer into out, when out
// is not nil.
func postJSON(url string, body any, out any) {
	data, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: %s: %s", url, resp.Status, payload)
	}
	if out != nil {
		if err := json.Unmarshal(payload, out); err != nil {
			log.Fatal(err)
		}
	}
}

// getText returns the body of a GET.
func getText(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		log.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(data)
}
