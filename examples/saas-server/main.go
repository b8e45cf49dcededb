// saas-server demonstrates the as-a-service workflow: it starts the
// profipyd API in-process, then acts as a client — registering a custom
// fault model, launching a campaign against the preloaded python-etcd
// demo project, and fetching the report — exactly the interaction a
// ProFIPy web user has with the service.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"profipy/internal/saas"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Start the service (in-process listener; `profipyd -addr :8080`
	// serves the same handler over a real port).
	srv := saas.NewServer(4)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Println("profipyd serving at", ts.URL)

	// 1. Browse the predefined fault models.
	models, err := getText(ts.URL + "/api/v1/faultmodels")
	if err != nil {
		return err
	}
	fmt.Println("available fault models:", models)

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
	if err := postJSON(ts.URL+"/api/v1/faultmodels", model, nil); err != nil {
		return fmt.Errorf("register model: %w", err)
	}
	fmt.Println("registered fault model lock-faults")

	// 3. Enqueue a campaign on the demo project with the custom model.
	// The API answers immediately with a job ID; the campaign runs on
	// the scheduler's worker pool.
	req, err := saas.DemoCampaignRequest("A", 42)
	if err != nil {
		return err
	}
	req.Specs = nil
	req.Model = "lock-faults"
	var submitted struct {
		Job string `json:"job"`
	}
	if err := postJSON(ts.URL+"/api/v1/campaigns", req, &submitted); err != nil {
		return fmt.Errorf("enqueue campaign: %w", err)
	}
	fmt.Println("campaign enqueued as", submitted.Job)

	// 4. Poll the job for streaming progress until it reaches a
	// terminal state.
	job, err := pollJob(ts.URL, submitted.Job)
	if err != nil {
		return err
	}
	if job.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
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
		body, err := getText(fmt.Sprintf("%s/api/v1/campaigns/%s/records?after=%d&limit=8",
			ts.URL, job.Campaign, cursor))
		if err != nil {
			return err
		}
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			return err
		}
		records += len(page.Records)
		cursor = page.Next
		if page.Done {
			break
		}
	}
	fmt.Printf("paged %d experiment records from the result store\n", records)

	// 6. Fetch the machine-readable phase timeline that rides along
	// with the report: where the campaign's wall time went.
	var view struct {
		Phases []struct {
			Name      string `json:"name"`
			Component string `json:"component"`
			StartNS   int64  `json:"startNs"`
			EndNS     int64  `json:"endNs"`
		} `json:"phases"`
	}
	body, err := getText(ts.URL + "/api/v1/campaigns/" + job.Campaign)
	if err != nil {
		return err
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		return err
	}
	fmt.Println("campaign phase timeline:")
	for _, p := range view.Phases {
		fmt.Printf("  %-10s %-9s %8.3f ms\n", p.Name, p.Component, float64(p.EndNS-p.StartNS)/1e6)
	}

	// 7. Scrape the Prometheus endpoint the whole pipeline reports
	// into — the same families an operator would dashboard.
	scrape, err := getText(ts.URL + "/metrics")
	if err != nil {
		return err
	}
	fmt.Println("selected /metrics families:")
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, "profipy_campaign_experiments_total") ||
			strings.HasPrefix(line, "profipy_executor_records_total") ||
			strings.HasPrefix(line, "profipy_resultstore_appends_total") ||
			strings.HasPrefix(line, "profipy_scheduler_jobs_finished_total") {
			fmt.Println(" ", line)
		}
	}

	// 8. Fetch the human-readable report.
	text, err := getText(ts.URL + "/api/v1/campaigns/" + job.Campaign + "/text")
	if err != nil {
		return err
	}
	fmt.Println(text)
	return nil
}

// jobStatus is what this client reads of a job (scheduler.Status on
// the wire).
type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Campaign string `json:"campaign"`
	Error    string `json:"error"`
	Progress struct {
		Phase string `json:"phase"`
		Done  int    `json:"done"`
		Total int    `json:"total"`
	} `json:"progress"`
}

// pollJob polls GET /api/v1/jobs/{id}, printing progress transitions,
// until the job is terminal.
func pollJob(base, id string) (jobStatus, error) {
	var last string
	for {
		var job jobStatus
		body, err := getText(base + "/api/v1/jobs/" + id)
		if err != nil {
			return job, err
		}
		if err := json.Unmarshal([]byte(body), &job); err != nil {
			return job, err
		}
		line := fmt.Sprintf("job %s: %s %s %d/%d experiments",
			job.ID, job.State, job.Progress.Phase, job.Progress.Done, job.Progress.Total)
		if line != last {
			fmt.Println(line)
			last = line
		}
		switch job.State {
		case "done", "failed", "canceled":
			return job, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func postJSON(url string, body any, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, payload)
	}
	if out != nil {
		return json.Unmarshal(payload, out)
	}
	return nil
}

func getText(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode >= 300 {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(data), nil
}
