package grid

import (
	"io"
	"net/http"
	"time"

	"safespec/internal/obs"
	"safespec/internal/sweep"
)

// spanHistograms are the live per-job span histograms, observed on every
// accepted result that carries a Timing.
type spanHistograms struct {
	queueWait, cacheTime, simTime, reportOverhead *obs.Histogram
}

// newRegistry builds the server's /metrics registry and its span
// histograms. The counter and gauge families mirror the accounting
// snapshot at scrape time — one Stats() call per scrape, through the
// registry's OnCollect hook — so their values are exactly what /v1/stats
// reports. The span histograms are live: report observes every accepted
// job's stamped Timing (see observe).
func (s *Server) newRegistry() *obs.Registry {
	reg := obs.NewRegistry()

	pending := reg.Gauge("safespec_jobs_pending", "Jobs queued waiting for a worker lease.")
	leased := reg.Gauge("safespec_leases_active", "Leases currently held by workers.")
	expired := reg.Gauge("safespec_leases_expired_awaiting", "Timed-out leases still eligible for a late result.")
	granted := reg.Counter("safespec_leases_granted_total", "Leases handed to polling workers.")
	completed := reg.Counter("safespec_jobs_completed_total", "Jobs finished with a reported result.")
	requeued := reg.Counter("safespec_leases_requeued_total", "Leases lost to TTL expiry and requeued.")
	failed := reg.Counter("safespec_jobs_failed_total", "Jobs failed after exhausting their lease attempts.")

	incidents := reg.Counter("safespec_incidents_total", "Contained worker incidents (panic, timeout, memory) reported to the coordinator.")
	quarantined := reg.Counter("safespec_jobs_quarantined_total", "Jobs quarantined as poison after incidents on distinct workers.")

	sweeps := reg.Gauge("safespec_sweeps_active", "Sweeps currently open on the server.")
	submitted := reg.Counter("safespec_sweeps_submitted_total", "Sweeps opened over the server's lifetime.")
	abandoned := reg.Counter("safespec_sweeps_abandoned_total", "Sweeps abandoned after their client went idle past the TTL.")
	streamed := reg.Counter("safespec_results_streamed_total", "Results delivered through batch streaming responses.")
	authFail := reg.Counter("safespec_auth_failures_total", "Requests rejected with 401 (unknown bearer token).")

	tenantReqs := reg.CounterVec("safespec_tenant_requests_total", "Authenticated requests per tenant.", "tenant")

	s.spans = spanHistograms{
		queueWait: reg.Histogram("safespec_job_queue_wait_seconds",
			"Per-job wait between enqueue and the completing lease grant.", nil),
		cacheTime: reg.Histogram("safespec_job_cache_lookup_seconds",
			"Per-job worker-side result-cache lookup and store time.", nil),
		simTime: reg.Histogram("safespec_job_simulate_seconds",
			"Per-job worker-side simulation time.", nil),
		reportOverhead: reg.Histogram("safespec_job_report_overhead_seconds",
			"Per-job report overhead: lease round trip net of worker-accounted time.", nil),
	}

	reg.OnCollect(func() {
		snap := s.Stats()
		pending.Set(int64(snap.Pending))
		leased.Set(int64(snap.Leased))
		expired.Set(int64(snap.Expired))
		granted.Set(snap.Granted)
		completed.Set(snap.Completed)
		requeued.Set(snap.Requeued)
		failed.Set(snap.Failed)
		incidents.Set(snap.Incidents)
		quarantined.Set(snap.Quarantined)
		sweeps.Set(int64(snap.Sweeps))
		submitted.Set(snap.SweepsSubmitted)
		abandoned.Set(snap.SweepsAbandoned)
		streamed.Set(snap.ResultsStreamed)
		authFail.Set(snap.AuthFailures)
		for _, ts := range snap.Tenants {
			tenantReqs.With(ts.Name).Set(ts.Requests)
		}
	})

	return reg
}

// observe records one accepted result's stamped span breakdown (nil when
// the worker sent none) in the span histograms.
func (s *Server) observe(tm *sweep.Timing) {
	if tm == nil {
		return
	}
	sec := func(ns int64) float64 { return time.Duration(ns).Seconds() }
	s.spans.queueWait.Observe(sec(tm.QueueNS))
	if tm.CacheNS > 0 {
		s.spans.cacheTime.Observe(sec(tm.CacheNS))
	}
	if tm.SimulateNS > 0 {
		s.spans.simTime.Observe(sec(tm.SimulateNS))
	}
	s.spans.reportOverhead.Observe(sec(tm.ReportNS))
}

// OpsHandler returns the unauthenticated operations surface mounted on the
// dedicated -pprof/ops listener: GET /metrics (Prometheus text format,
// version 0.0.4: coordinator lease/job counters, sweep lifecycle counters,
// per-tenant request counters and per-job span histograms under the
// `safespec_` namespace), GET /status (read-only live HTML), and the GET
// /healthz and GET /readyz probes. Keep that listener on loopback or a
// firewalled operations network — it is deliberately token-free so
// scrapers and dashboards need no tenant credential, and it exposes tenant
// names and sweep shapes (never tokens or results).
func (s *Server) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		s.WriteStatus(w)
	})
	// /healthz is liveness: the process is up and serving. /readyz is
	// readiness: state is loaded (main opens the journal before starting
	// this listener) and the server has not begun draining, so it is safe
	// to route new sweeps here.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, req *http.Request) {
		http.Redirect(w, req, "/status", http.StatusFound)
	})
	return mux
}
