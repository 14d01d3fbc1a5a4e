// Command fnrd serves fnr batch jobs over HTTP/JSON.
//
// It exposes the batch-job layer (internal/job) behind a small daemon:
// POST a job.Spec to /v1/batches, poll GET /v1/batches/{id} until the
// state is "done", and the returned aggregate is byte-identical to
// running the same spec in-process through fnr.RunJob. Graphs
// are shared across batches through a content-addressed cache keyed by
// workload hash, so repeated submissions against the same topology
// build it once. Specs may carry a scenario block (agents, starts,
// wake_delays, meet) to run k-agent delayed-wakeup gatherings; specs
// without one hash and execute exactly as before the scenario layer
// existed. SIGINT/SIGTERM drains gracefully: in-flight
// checkpointed batches journal their covered trial spans before the
// process exits, ready for a resume resubmission.
//
// Usage:
//
//	fnrd [-addr :8080] [-jobs 2] [-queue 16] [-job-workers 0]
//	     [-cache-mb 2048] [-retry-after 1s] [-drain-timeout 30s]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"fnr/internal/graphcache"
	"fnr/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	jobs := flag.Int("jobs", 2, "batches executed concurrently")
	queue := flag.Int("queue", 16, "admission queue depth (overflow is 429)")
	jobWorkers := flag.Int("job-workers", 0, "engine workers per batch (0 = GOMAXPROCS)")
	cacheMB := flag.Int64("cache-mb", 2048, "graph cache budget in MiB (0 = default, <0 = unlimited)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight batches on shutdown")
	flag.Parse()

	srv := server.New(server.Config{
		Jobs:       *jobs,
		QueueDepth: *queue,
		JobWorkers: *jobWorkers,
		RetryAfter: *retryAfter,
		Cache:      graphcache.New(*cacheMB << 20),
	})
	hs := &http.Server{Addr: *addr, Handler: srv}

	// The same drain trigger the CLIs use: first SIGINT/SIGTERM
	// cancels, a second one kills.
	ctx, stop := server.SignalContext(context.Background())
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "fnrd listening on %s (jobs=%d queue=%d cache=%dMiB)\n",
		*addr, *jobs, *queue, *cacheMB)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "fnrd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "fnrd: draining (in-flight checkpointed batches journal their spans)")

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(dctx)
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "fnrd: shutdown:", err)
	}
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "fnrd: drain timed out with batches still running")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "fnrd: drained cleanly")
}
