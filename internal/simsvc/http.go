package simsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"kagura/internal/compress"
	"kagura/internal/ehs"
	"kagura/internal/faultinject"
	"kagura/internal/powertrace"
	"kagura/internal/workload"
)

// NewHandler returns the service's HTTP API:
//
//	POST   /v1/run        run one spec; blocks until done, returns RunResult.
//	                      ?async=1 returns 202 + JobStatus immediately.
//	POST   /v1/batch      {"jobs":[spec...]}; returns 202 + per-job statuses.
//	GET    /v1/jobs       list retained jobs, newest first.
//	GET    /v1/jobs/{id}  one job's status (result inlined when done).
//	                      ?format=otlp returns the phase trace as OTLP/JSON.
//	DELETE /v1/jobs/{id}  cancel a queued or running job.
//	GET    /v1/workloads  workload / trace / codec / design / policy catalog.
//	GET    /healthz       liveness.
//	GET    /readyz        readiness; 503 + Retry-After while shedding load.
//	GET    /metrics       Prometheus text exposition.
//
// Every /v1 error response carries a machine-readable `code` field (the
// ErrorCode taxonomy) beside the human-readable `error`; 503s carry a
// Retry-After header estimating the queue drain time.
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready, reason := svc.Ready(); !ready {
			w.Header().Set("Retry-After", strconv.Itoa(svc.RetryAfterSeconds()))
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "unready: %s\n", reason)
			return
		}
		w.Write([]byte("ok\n"))
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(svc.Metrics().Prometheus()))
	})

	mux.HandleFunc("GET /v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"workloads": workload.Names(),
			"traces":    powertrace.Names(),
			"codecs":    compress.Names(),
			"designs": []string{
				ehs.NVSRAMCache.String(), ehs.NvMR.String(), ehs.SweepCache.String(),
			},
			"policies": []string{"AIMD", "MIAD", "AIAD", "MIMD"},
			"triggers": []string{"mem", "voltage"},
		})
	})

	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		var spec RunSpec
		if !decodeJSON(w, r, svc, &spec) {
			return
		}
		if r.URL.Query().Get("async") != "" {
			job, err := svc.Submit(spec)
			if err != nil {
				writeServiceError(w, svc, err)
				return
			}
			st, _ := svc.Job(job.ID())
			writeJSON(w, http.StatusAccepted, st)
			return
		}
		res, err := svc.Run(r.Context(), spec)
		if err != nil {
			writeServiceError(w, svc, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})

	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Jobs      []RunSpec  `json:"jobs"`
			ForkPoint *ForkPoint `json:"forkPoint,omitempty"`
		}
		if !decodeJSON(w, r, svc, &body) {
			return
		}
		if len(body.Jobs) == 0 {
			svc.noteError(CodeBadRequest)
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				errors.New("simsvc: batch needs a non-empty jobs array"))
			return
		}
		jobs, err := svc.SubmitBatchFork(body.Jobs, body.ForkPoint)
		statuses := make([]JobStatus, 0, len(jobs))
		for _, j := range jobs {
			st, jerr := svc.Job(j.ID())
			if jerr == nil {
				statuses = append(statuses, st)
			}
		}
		if err != nil {
			status := submitStatus(err)
			if status == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", strconv.Itoa(svc.RetryAfterSeconds()))
			}
			writeJSON(w, status, map[string]any{
				"error":     err.Error(),
				"code":      Classify(err),
				"submitted": statuses,
			})
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{
			"count": len(statuses),
			"jobs":  statuses,
		})
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": svc.Jobs()})
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "otlp" {
			blob, err := svc.JobTraceOTLP(r.PathValue("id"))
			if err != nil {
				writeNotFound(w, svc, err)
				return
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.Write(blob)
			return
		}
		st, err := svc.Job(r.PathValue("id"))
		if err != nil {
			writeNotFound(w, svc, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := svc.Cancel(r.PathValue("id")); err != nil {
			writeNotFound(w, svc, err)
			return
		}
		st, _ := svc.Job(r.PathValue("id"))
		writeJSON(w, http.StatusOK, st)
	})

	return mux
}

// submitStatus maps submission errors to HTTP statuses: overload (shed or
// full queue) → 503, shutdown → 503, everything else (validation) → 400.
func submitStatus(err error) int {
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// writeServiceError renders a submission failure: taxonomy code in the body,
// Retry-After on 503s.
func writeServiceError(w http.ResponseWriter, svc *Service, err error) {
	status := submitStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(svc.RetryAfterSeconds()))
	}
	writeError(w, status, Classify(err), err)
}

// writeNotFound renders a failed job lookup, which is always a 404; its
// code comes from the error (unknown_job).
func writeNotFound(w http.ResponseWriter, svc *Service, err error) {
	svc.noteError(Classify(err))
	writeError(w, http.StatusNotFound, Classify(err), err)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, svc *Service, v any) bool {
	// Chaos point for slow or aborted request bodies; an injected latency
	// honors the request context like a real stalled client.
	if err := faultinject.SimsvcHTTPBody.Fire(r.Context()); err != nil {
		svc.noteError(Classify(err))
		writeError(w, http.StatusBadRequest, Classify(err), err)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(v); err != nil {
		svc.noteError(CodeBadRequest)
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	// Chaos point simulating a connection dying mid-response: emit a truncated
	// body, then abort the handler the way net/http sanctions — the server
	// closes the connection without a trailer, and the panic never reaches the
	// jobs table or scheduler state, which were updated before rendering.
	if faultinject.SimsvcHTTPResponse.FireErr() != nil {
		w.Write([]byte("{"))
		panic(http.ErrAbortHandler)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code ErrorCode, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error(), "code": string(code)})
}
