package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"profipy/internal/saas"
)

// TestServeGracefulShutdown drives the daemon's lifecycle: serve
// requests, cancel the context (what SIGINT/SIGTERM do), and verify
// serve drains and returns cleanly.
func TestServeGracefulShutdown(t *testing.T) {
	srv, err := saas.NewServerWithOptions(saas.Options{Cores: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, srv, ln, 5*time.Second) }()

	// The server answers while running.
	url := "http://" + ln.Addr().String() + "/api/v1/projects"
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get(url)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	var projects []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&projects); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(projects) == 0 {
		t.Fatal("no demo project listed")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
	// The listener is released.
	if _, err := http.Get(url); err == nil {
		t.Error("server still answering after shutdown")
	}
}

// TestRunFlagHandling covers the flag path: bad flags error out, and a
// canceled context stops a successfully started daemon.
func TestRunFlagHandling(t *testing.T) {
	if err := run(context.Background(), []string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-data-dir", t.TempDir(), "-workers", "1"})
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not shut down")
	}
}

// TestRunRefusesLockedDataDir: while one daemon holds a data dir, a
// second one pointed at it fails by the dir's name before its result
// store opens — the first daemon's journal is neither rewritten nor
// renamed (compaction would give it a new inode).
func TestRunRefusesLockedDataDir(t *testing.T) {
	dir := t.TempDir()
	unlock, err := lockDataDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer unlock()
	srv, err := saas.NewServerWithOptions(saas.Options{Cores: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req, err := saas.DemoCampaignRequest("A", 101)
	if err != nil {
		t.Fatal(err)
	}
	req.SampleN = 3
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/api/v1/campaigns?wait=true", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("campaign status = %d", resp.StatusCode)
	}

	journal := filepath.Join(dir, "journal.jsonl")
	before, err := os.ReadFile(journal)
	if err != nil || len(before) == 0 {
		t.Fatalf("no journal to protect: %d bytes, %v", len(before), err)
	}
	beforeInfo, _ := os.Stat(journal)
	// Without the lock the second daemon would serve until ctx ends.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err = run(ctx, []string{"-addr", "127.0.0.1:0", "-data-dir", dir})
	if err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("second daemon on a held data dir: err = %v, want one naming %s", err, dir)
	}
	after, _ := os.ReadFile(journal)
	afterInfo, _ := os.Stat(journal)
	if !bytes.Equal(before, after) || !os.SameFile(beforeInfo, afterInfo) {
		t.Errorf("journal touched by the refused daemon: %d -> %d bytes, same file %v",
			len(before), len(after), os.SameFile(beforeInfo, afterInfo))
	}
}
