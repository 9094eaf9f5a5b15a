// Command kagura-serve exposes the simulation service over HTTP.
//
// Usage:
//
//	kagura-serve -addr :8080 -workers 8 -timeout 5m
//
// Quick start:
//
//	curl -s localhost:8080/v1/workloads
//	curl -s -X POST localhost:8080/v1/run \
//	    -d '{"app":"jpeg","scale":0.1,"codec":"BDI","acc":true,"kagura":true}'
//	curl -s -X POST localhost:8080/v1/batch \
//	    -d '{"jobs":[{"app":"jpeg","scale":0.1},{"app":"gsm","scale":0.1}]}'
//	curl -s localhost:8080/v1/jobs/job-00000001
//	curl -s -X POST localhost:8080/v1/campaigns -d @campaign.json
//	curl -s 'localhost:8080/v1/campaigns/c1?format=csv'
//	curl -s localhost:8080/metrics
//
// The server drains gracefully on SIGINT/SIGTERM: in-flight requests get
// -grace to finish, then the worker pool is canceled and the process exits.
//
// Observability:
//
//   - -log-json emits structured JSON job-lifecycle events (submit, reject,
//     finish — each carrying the job ID, cache key, state, and taxonomy
//     error code) on stderr. Off by default; the nil-logger fast path
//     costs one pointer check per event.
//   - -ops-addr starts a second listener serving net/http/pprof under
//     /debug/pprof/. It is separate from -addr so profiling is never exposed
//     on the API surface; bind it to localhost or a private interface.
//
// Persistence:
//
//   - -store-dir points the service at a persistent on-disk store for
//     results and warm-start checkpoints (DESIGN.md §12). Work computed
//     before a restart or deploy is served from disk instead of being
//     re-simulated; -store-budget bounds the disk footprint (oldest-access
//     entries are evicted beyond it). Inspect the directory offline with
//     `kagura-ckpt store ls|gc|verify -dir <dir>`.
//
// Crash recovery (DESIGN.md §14):
//
//   - With -store-dir set, a durable intent journal lives under
//     <store-dir>/journal. Every accepted job and every campaign wave is
//     recorded; on startup the server resumes interrupted campaigns and
//     replays unsettled jobs (serving 503 on /readyz until the replay pass
//     completes), so a SIGKILL mid-campaign costs a restart, not the sweep.
//     Inspect the journal offline with `kagura-ckpt journal ls|verify -dir
//     <store-dir>/journal`.
//
// For chaos drills, -chaos arms a deterministic fault-injection plan
// (internal/faultinject JSON: {"seed":42,"rules":[{"point":"simsvc.compute",
// "kind":"error","probability":0.05}]}); never set it in production.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"kagura"
	"kagura/internal/faultinject"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 1024, "queued-job bound before 503s")
		timeout  = flag.Duration("timeout", 10*time.Minute, "per-job execution timeout (0 = none)")
		retain   = flag.Int("retain", 4096, "finished jobs kept queryable by id")
		cacheCap = flag.Int("cache-capacity", 4096,
			"memory-cache entry bound, results and warm-start snapshots together; LRU eviction beyond it (negative = unbounded)")
		storeDir = flag.String("store-dir", "",
			"persistent result/checkpoint store directory; survives restarts (empty = memory-only)")
		storeBudget = flag.Int64("store-budget", 0,
			"store disk budget in bytes (0 = 1 GiB, negative = unbounded)")
		grace = flag.Duration("grace", 15*time.Second, "shutdown grace period")

		logJSON = flag.Bool("log-json", false, "emit structured JSON job-lifecycle events on stderr")
		opsAddr = flag.String("ops-addr", "",
			"ops listener address serving /debug/pprof/ (empty = disabled; bind privately)")

		readHeaderTimeout = flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout")
		writeTimeout      = flag.Duration("write-timeout", 15*time.Minute, "http.Server WriteTimeout (must cover synchronous /v1/run)")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
		maxHeaderBytes    = flag.Int("max-header-bytes", 1<<20, "http.Server MaxHeaderBytes")

		chaosPlan = flag.String("chaos", "", "fault-injection plan JSON file (staging chaos drills; see DESIGN.md §10)")
	)
	flag.Parse()

	if *chaosPlan != "" {
		raw, err := os.ReadFile(*chaosPlan)
		if err != nil {
			log.Fatalf("kagura-serve: chaos plan: %v", err)
		}
		var plan faultinject.Plan
		if err := json.Unmarshal(raw, &plan); err != nil {
			log.Fatalf("kagura-serve: chaos plan %s: %v", *chaosPlan, err)
		}
		if err := faultinject.Enable(plan); err != nil {
			log.Fatalf("kagura-serve: chaos plan %s: %v", *chaosPlan, err)
		}
		log.Printf("kagura-serve: CHAOS PLAN ARMED — %d rules, seed %d (%s)", len(plan.Rules), plan.Seed, *chaosPlan)
	}

	opts := kagura.DefaultServiceOptions()
	opts.Workers = *workers
	opts.QueueDepth = *queue
	opts.DefaultTimeout = *timeout
	opts.RetainJobs = *retain
	opts.CacheCapacity = *cacheCap
	opts.StoreDir = *storeDir
	opts.StoreBudgetBytes = *storeBudget
	if *logJSON {
		opts.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	var jnl *kagura.Journal
	if *storeDir != "" {
		var err error
		jnl, err = kagura.OpenJournal(filepath.Join(*storeDir, "journal"))
		if err != nil {
			// Same posture as a failing store: an explicitly requested durable
			// tier that cannot open is a configuration error.
			log.Fatalf("kagura-serve: journal: %v", err)
		}
		defer jnl.Close()
		opts.Journal = jnl
	}
	svc := kagura.NewService(opts)
	if err := svc.StoreErr(); err != nil {
		// An explicitly requested store that cannot open is a configuration
		// error: fail loudly at startup rather than silently serving
		// memory-only and recomputing everything after each deploy.
		log.Fatalf("kagura-serve: store: %v", err)
	}
	if m, ok := svc.StoreMetrics(); ok {
		log.Printf("kagura-serve: store %s — %d entries, %d bytes (%d quarantined at scan)",
			*storeDir, m.Entries, m.Bytes, m.ScanCorrupted)
	}

	if *opsAddr != "" {
		// pprof lives on its own mux and listener: the handlers are registered
		// explicitly (never via the net/http/pprof DefaultServeMux side
		// effect), so nothing debug-shaped can leak onto the API listener.
		opsMux := http.NewServeMux()
		opsMux.HandleFunc("/debug/pprof/", pprof.Index)
		opsMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		opsMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		opsMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		opsMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		opsSrv := &http.Server{
			Addr:              *opsAddr,
			Handler:           opsMux,
			ReadHeaderTimeout: *readHeaderTimeout,
		}
		defer opsSrv.Close()
		go func() {
			log.Printf("kagura-serve: ops listener (pprof) on %s", *opsAddr)
			if err := opsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("kagura-serve: ops listener: %v", err)
			}
		}()
	}

	var campaigns *kagura.CampaignManager
	if jnl != nil {
		campaigns = kagura.NewCampaignManagerJournaled(svc, jnl)
		if resumed := campaigns.ResumeFromJournal(); len(resumed) > 0 {
			log.Printf("kagura-serve: resumed %d interrupted campaign(s) from journal: %v", len(resumed), resumed)
		}
		svc.StartJournalReplay() // /readyz reports not-ready until the pass completes
		jm := jnl.Metrics()
		log.Printf("kagura-serve: journal — %d pending jobs, %d campaigns, %d bytes",
			jm.PendingJobs, jm.Campaigns, jm.SizeBytes)
	} else {
		campaigns = kagura.NewCampaignManager(svc)
	}
	defer campaigns.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(kagura.CampaignHandler(campaigns, kagura.ServiceHandler(svc))),
		ReadHeaderTimeout: *readHeaderTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("kagura-serve: listening on %s (%d workers)", *addr, svc.Options().Workers)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("kagura-serve: %v", err)
		}
	case <-ctx.Done():
		log.Printf("kagura-serve: shutting down (grace %s)", *grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("kagura-serve: forced shutdown: %v", err)
		}
	}
	campaigns.Close() // cancel campaign goroutines before their service goes away
	svc.Close()       // reap in-flight jobs before the final tally
	m := svc.Metrics()
	log.Printf("kagura-serve: done — %d run, %d cached, %d failed, %d canceled",
		m.JobsRun, m.JobsCached, m.JobsFailed, m.JobsCanceled)
}

// logRequests is a minimal access-log middleware.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		log.Printf("%s %s %d %s", r.Method, r.URL.Path, rec.status,
			fmt.Sprintf("%.1fms", float64(time.Since(start).Microseconds())/1000))
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}
