// Command stfm-server runs the simulation-as-a-service HTTP API: a job
// queue with explicit backpressure, a worker pool executing simulations
// concurrently, and a content-addressed result cache so resubmitted
// configurations are answered instantly.
//
// Usage:
//
//	stfm-server -addr :8080 -workers 4 -cache-dir /var/cache/stfm
//
// Endpoints (see DESIGN.md Section 13 and the README for examples):
//
//	POST   /v1/jobs             submit {config, workload|matrix, timeoutMs}
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        status and progress
//	GET    /v1/jobs/{id}/result completed result
//	POST   /v1/jobs/{id}/fork   fork the simulation under new policies
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/healthz          liveness
//	GET    /v1/stats            counters and job-duration percentiles
//
// SIGINT/SIGTERM drain gracefully: intake stops, queued and running
// jobs finish (bounded by -drain-timeout, after which they are
// canceled), then the process exits.
//
// With -journal-dir set, accepted jobs also survive ungraceful death
// (kill -9, power loss): lifecycle records are journaled write-ahead,
// running jobs checkpoint every -checkpoint-every CPU cycles, and a
// restart on the same journal re-enqueues pending jobs and resumes
// running ones from their last checkpoint. See DESIGN.md Section 17.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stfm/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers      = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		queueSize    = flag.Int("queue", 64, "job queue capacity (submissions beyond it get 429)")
		cacheDir     = flag.String("cache-dir", "", "directory for the result cache's disk spill (empty = memory only)")
		sampleEvery  = flag.Int64("sample-every", 5000, "progress sampling interval in DRAM cycles")
		baselineDir  = flag.String("baseline-dir", "", "directory for the shared alone-baseline store: alone-shaped jobs (one benchmark, FR-FCFS, no fork) keep their results here instead of in -cache-dir; share with stfm-experiments/-sweep/-bench (empty = disabled)")
		journalDir   = flag.String("journal-dir", "", "directory for the durable job journal and checkpoints; restarts re-enqueue pending jobs and resume from checkpoints (empty = no journal)")
		ckptEvery    = flag.Int64("checkpoint-every", 0, "checkpoint period for journaled jobs in CPU cycles (0 = 250000, negative = journal without checkpoints)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "stfm-server: ", log.LstdFlags)
	srv, err := service.New(service.Options{
		Workers:         *workers,
		QueueSize:       *queueSize,
		CacheDir:        *cacheDir,
		BaselineDir:     *baselineDir,
		SampleEvery:     *sampleEvery,
		JournalDir:      *journalDir,
		CheckpointEvery: *ckptEvery,
		Logf:            logger.Printf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "stfm-server: %v\n", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stfm-server: %v\n", err)
		os.Exit(1)
	}
	// Print the resolved address (not the flag) so -addr :0 callers —
	// the CI smoke test among them — can discover the chosen port.
	fmt.Printf("stfm-server: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Printf("signal received, draining (timeout %s)", *drainTimeout)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "stfm-server: %v\n", err)
		os.Exit(1)
	}

	deadline, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting connections first, then let the pool finish its
	// queued and running jobs.
	if err := httpSrv.Shutdown(deadline); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := srv.Drain(deadline); err != nil {
		logger.Printf("drain: %v (in-flight jobs canceled)", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("serve: %v", err)
	}
	logger.Printf("shutdown complete")
}
