// Command profipy-worker is a remote execution agent for profipyd.
// It registers with a control plane, heartbeats, pulls shard leases
// for remote campaigns, rebuilds each leased campaign from its
// serialized spec and streams experiment records back over HTTP.
//
//	profipy-worker -server http://controlplane:8080 -parallel 4
//
// Workers are stateless and disposable: killing one at any instant
// only delays the campaign — its lease expires on the control plane
// and the shard is re-dispatched to a surviving worker (or executed
// in-process by profipyd itself). Run as many as you like; shard
// leases spread across whoever is alive.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"profipy/internal/worker"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "profipy-worker:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("profipy-worker", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:8080", "control plane base URL")
	name := fs.String("name", "", "worker name shown in the fleet listing (default: hostname)")
	parallel := fs.Int("parallel", 2, "concurrent experiments per shard")
	batch := fs.Int("batch", 8, "records per ingest batch")
	poll := fs.Duration("poll", 0, "how long the control plane may hold an idle lease request (0 = its own suggestion)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	logJSON := fs.Bool("log-json", false, "emit logs as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(strings.ToLower(*logLevel))); err != nil {
		return fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", *logLevel)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if *logJSON {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	slog.SetDefault(slog.New(h))

	wname := *name
	if wname == "" {
		if hn, err := os.Hostname(); err == nil {
			wname = hn
		} else {
			wname = "worker"
		}
	}
	ag := worker.New(worker.Config{
		Server:    strings.TrimRight(*server, "/"),
		Name:      wname,
		Parallel:  *parallel,
		BatchSize: *batch,
		Poll:      *poll,
	})
	slog.Info("profipy-worker starting", "server", *server, "name", wname, "parallel", *parallel)
	err := ag.Run(ctx)
	if errors.Is(err, context.Canceled) {
		fmt.Println("profipy-worker: shutting down")
		// Give the control plane a beat to observe the final state of
		// any in-flight HTTP exchange before the process exits.
		time.Sleep(50 * time.Millisecond)
		return nil
	}
	return err
}
