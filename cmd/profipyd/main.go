// Command profipyd serves ProFIPy as-a-service: an HTTP/JSON API for
// uploading target projects, registering fault models, running fault
// injection campaigns and retrieving failure-analysis reports.
// Campaigns are scheduled asynchronously on a bounded job queue drained
// by a worker pool; experiment records stream into a persistent result
// store as they complete, so clients can page and live-follow them, and
// a restarted daemon keeps serving campaigns a previous process
// finished. With -data-dir the daemon is also crash-consistent:
// accepted jobs are write-ahead journaled, so after a kill -9 the next
// boot re-enqueues queued jobs and resumes mid-flight campaigns from
// their stored records, re-executing only the missing experiments.
//
//	profipyd -addr :8080 -cores 8 -workers 2 -queue 64 -data-dir /var/lib/profipy
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: the HTTP server
// stops accepting work and drains in-flight requests (bounded by
// -shutdown-timeout), running campaigns are canceled, and the result
// store flushes — no record that reached the store is lost.
//
// Endpoints (see internal/saas):
//
//	POST   /api/v1/projects                upload a project
//	GET    /api/v1/projects                list projects
//	POST   /api/v1/faultmodels             register a fault model (JSON DSL)
//	GET    /api/v1/faultmodels             list models
//	GET    /api/v1/faultmodels/{name}      fetch a model
//	POST   /api/v1/campaigns               enqueue a campaign → 202 {job}
//	                                       (?wait=true blocks → 201 {id, report})
//	GET    /api/v1/campaigns               list finished campaigns
//	GET    /api/v1/campaigns/{id}          campaign report (JSON)
//	GET    /api/v1/campaigns/{id}/text     campaign report (text)
//	GET    /api/v1/campaigns/{id}/records  record page (?after=<cursor>&limit=<n>)
//	GET    /api/v1/campaigns/{id}/stream   live NDJSON record stream (?after=<cursor>)
//	GET    /api/v1/jobs                    list campaign jobs
//	GET    /api/v1/jobs/{id}               job status + live progress
//	DELETE /api/v1/jobs/{id}               cancel a queued/running job
//	GET    /metrics                        Prometheus text exposition
//
// With -debug-addr the daemon additionally serves net/http/pprof on a
// separate listener (keep it off the public address):
//
//	profipyd -addr :8080 -debug-addr 127.0.0.1:6060
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"profipy/internal/saas"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "profipyd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("profipyd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cores := fs.Int("cores", 4, "simulated host cores (experiments run N-1 in parallel)")
	workers := fs.Int("workers", 2, "campaign scheduler worker pool size")
	queue := fs.Int("queue", 64, "max queued campaign jobs before 429")
	dataDir := fs.String("data-dir", "", "persistent result store directory (empty = in-memory only)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "graceful HTTP drain deadline on SIGINT/SIGTERM")
	leaseTTL := fs.Duration("lease-ttl", 0, "remote worker shard lease TTL before re-dispatch (0 = 15s default)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request deadline for non-streaming API routes (0 = 30s default, negative disables)")
	debugAddr := fs.String("debug-addr", "", "optional pprof listen address (e.g. 127.0.0.1:6060); empty disables")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	logJSON := fs.Bool("log-json", false, "emit logs as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := setupLogging(*logLevel, *logJSON); err != nil {
		return err
	}
	if *dataDir != "" {
		unlock, err := lockDataDir(*dataDir)
		if err != nil {
			return err
		}
		defer unlock()
	}
	srv, err := saas.NewServerWithOptions(saas.Options{
		Cores: *cores, Workers: *workers, QueueDepth: *queue,
		DataDir: *dataDir, LeaseTTL: *leaseTTL, RequestTimeout: *reqTimeout,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	if *debugAddr != "" {
		stopDebug, derr := serveDebug(*debugAddr)
		if derr != nil {
			ln.Close()
			srv.Close()
			return derr
		}
		defer stopDebug()
	}
	persistence := "in-memory results"
	if *dataDir != "" {
		persistence = "data dir " + *dataDir
	}
	fmt.Printf("profipyd listening on %s (demo project: %s, %d campaign workers, %s)\n",
		ln.Addr(), saas.DemoProjectID, *workers, persistence)
	return serve(ctx, srv, ln, *shutdownTimeout)
}

// lockDataDir flocks the data directory itself (no lockfile) until the
// returned func runs: a second daemon on the same dir fails here, before
// its store replays or compacts the first one's journal.
func lockDataDir(dir string) (func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("data dir %s is in use by another profipyd: %w", dir, err)
	}
	return func() { f.Close() }, nil
}

// setupLogging installs the process-wide slog default the saas layer
// logs through (context-scoped loggers derive from it).
func setupLogging(level string, asJSON bool) error {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(strings.ToLower(level))); err != nil {
		return fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if asJSON {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	slog.SetDefault(slog.New(h))
	return nil
}

// serveDebug exposes net/http/pprof on its own listener, kept separate
// from the API address so profiling endpoints are never reachable
// through the public port. Returns a closer for shutdown.
func serveDebug(addr string) (func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	dbg := &http.Server{Handler: mux}
	go func() {
		if err := dbg.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			slog.Warn("debug server stopped", "err", err)
		}
	}()
	slog.Info("pprof debug server listening", "addr", ln.Addr().String())
	return func() { _ = dbg.Close() }, nil
}

// serve runs the HTTP server until ctx is canceled (SIGINT/SIGTERM),
// then shuts down in order: stop accepting connections and drain
// in-flight requests within the deadline, cancel the campaign
// scheduler, and flush/seal the result store. Records that reached the
// store before shutdown survive a subsequent restart.
func serve(ctx context.Context, srv *saas.Server, ln net.Listener, drain time.Duration) error {
	// No WriteTimeout: /stream responses are deliberately long-lived
	// and bounded by campaign lifecycle, not a wall clock. Reads are
	// bounded so a stalled or malicious client can't pin a connection:
	// headers must arrive promptly, bodies (project uploads, worker
	// record batches) within a generous minute.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Println("profipyd: shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	// Start the HTTP drain (stops accepting connections immediately),
	// then close the service concurrently: canceling running campaigns
	// is what ends long-lived /stream followers, so ordinary requests
	// drain promptly instead of Shutdown stalling on live streams for
	// the whole deadline. Close also flushes and seals the result
	// store, so nothing that reached it is lost.
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- httpSrv.Shutdown(shCtx) }()
	srv.Close()
	shutdownErr := <-shutdownDone
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	return nil
}
