package grid

import (
	"fmt"
	"time"
)

// Fleet self-healing: the coordinator side of job containment.
//
// Workers contain failing jobs (panic recovery, a lease-TTL watchdog, a
// soft memory guard) and report them as structured incidents instead of
// dying. The coordinator quarantines poison jobs: a job that draws
// incidents from QuarantineAfter distinct workers is completed immediately
// with a deterministic error row, instead of marching through every worker
// until MaxAttempts burns out fleet-wide.
//
// Stalls need no report: lease-TTL expiry requeues a lost job, and hedged
// tail leases (see maybeHedgeLocked in grid.go) duplicate a slow one. A
// retried job — after an incident, an expiry or a hedge — must not go back
// to the worker that last held it while another worker is live, so the
// server keeps each worker's last-contact time — and nothing else — to
// answer "is anyone else live?".

// Incident kinds a worker reports. The taxonomy is closed: the coordinator
// rejects other kinds so a typo'd client cannot grow unbounded label sets.
const (
	// IncidentPanic: the job (or its executor wrapper chain) panicked; the
	// worker recovered in the slot and kept running.
	IncidentPanic = "panic"
	// IncidentTimeout: the job outlived the worker's watchdog (90% of the
	// lease TTL); the worker abandoned the wait before the coordinator's
	// TTL fired, so the incident beats the silent requeue.
	IncidentTimeout = "timeout"
	// IncidentMemory: the process heap crossed the worker's soft memory
	// limit while the job ran.
	IncidentMemory = "memory"
)

// validIncidentKind reports whether k is one of the closed incident kinds.
func validIncidentKind(k string) bool {
	return k == IncidentPanic || k == IncidentTimeout || k == IncidentMemory
}

// workerHeader carries the worker's base id (Worker.ID, without the lease
// loop suffix) on every request, so the coordinator knows which lease
// loops belong to one worker when it applies the holder rule.
const workerHeader = "X-Safespec-Worker"

// IncidentRequest reports one contained job failure (POST /v1/incident).
// The lease is released server-side: the job requeues, or quarantines once
// enough distinct workers have reported against it.
type IncidentRequest struct {
	LeaseID string `json:"lease_id"`
	// Worker is the reporting worker's base id (matches workerHeader).
	Worker string `json:"worker"`
	// Kind is one of IncidentPanic, IncidentTimeout, IncidentMemory.
	Kind string `json:"kind"`
	// Message describes the failure. Workers keep it deterministic (no
	// timestamps, no addresses) so a quarantined job's error row is
	// byte-stable across runs when the underlying fault is.
	Message string `json:"message"`
}

// taskIncident is one incident recorded against a job, the unit of the
// quarantine decision (distinct Worker values are counted against
// ServerOptions.QuarantineAfter).
type taskIncident struct {
	Worker, Kind, Message string
}

// workerLiveWindow bounds how stale a worker's last contact may be for it
// to count as live: a worker nobody has heard from cannot take a retried
// job.
const workerLiveWindow = time.Minute

// touchLocked records a contact from a worker id and forgets, at most once
// a minute, every worker silent past the live window, so a persistent
// server's map holds steady across fleet churn. Caller holds s.mu; an
// empty id (a client that predates the worker header and sent no worker
// label) is not tracked.
func (s *Server) touchLocked(id string, now time.Time) {
	if id == "" {
		return
	}
	s.seen[id] = now
	if now.Sub(s.lastPrune) < time.Minute {
		return
	}
	s.lastPrune = now
	for w, last := range s.seen {
		if now.Sub(last) > workerLiveWindow {
			delete(s.seen, w)
		}
	}
}

// anyOtherLiveLocked reports whether a worker other than except has made
// contact within the live window. Caller holds s.mu.
func (s *Server) anyOtherLiveLocked(except string, now time.Time) bool {
	for id, last := range s.seen {
		if id != except && now.Sub(last) <= workerLiveWindow {
			return true
		}
	}
	return false
}

// distinctIncidentWorkers counts how many distinct workers have reported
// an incident against t — the quarantine measure. Duplicate reports from
// one worker (or a replayed journal) cannot inflate it.
func distinctIncidentWorkers(t *task) int {
	seen := make(map[string]struct{}, len(t.incidents))
	for _, inc := range t.incidents {
		seen[inc.Worker] = struct{}{}
	}
	return len(seen)
}

// quarantineError builds the deterministic error row for a quarantined
// job: job label, the final incident's kind and message, and the distinct
// worker count — never wall-clock times, worker ids, or attempt counters,
// so the row is byte-stable across runs whenever the underlying fault is
// deterministic.
func quarantineError(t *task, distinct int) error {
	last := t.incidents[len(t.incidents)-1]
	return fmt.Errorf("grid: %s: quarantined as poison after %s incidents on %d workers: %s",
		t.job, last.Kind, distinct, last.Message)
}
