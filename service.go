package doall

import (
	"doall/internal/service"
	"doall/internal/service/buildinfo"
)

// The service plane: a persistent daemon core (doall serve) and its thin
// HTTP client (doall ctl). A Service owns a bounded priority queue of
// scenario and sweep jobs, runs them cell by cell on a shared fleet of
// reusable simulation engines, streams per-cell results as NDJSON, and
// checkpoints every completed cell to a write-ahead log so jobs survive
// daemon restarts. Because per-cell seeds derive from cell coordinates
// alone, a restarted job completes to results identical to an
// uninterrupted run (wall-clock timings excepted).
type (
	// Service is the daemon core: queue, fleet, checkpoint log, metrics.
	Service = service.Service
	// ServiceConfig tunes a Service; the zero value is serviceable.
	ServiceConfig = service.Config
	// ServiceClient is the typed HTTP client (what doall ctl is built from).
	ServiceClient = service.Client
	// Job is the unit of submission: one scenario or one sweep, plus
	// priority and timeout.
	Job = service.Job
	// JobStatus is a job's wire-form progress.
	JobStatus = service.JobStatus
	// JobState is the job lifecycle: queued → running → done|failed|canceled.
	JobState = service.JobState
	// JobDuration marshals as "30s"-style strings in job documents.
	JobDuration = service.Duration
	// ResultCell is one line of a job's NDJSON result stream.
	ResultCell = service.ResultCell
	// ResultTrailer is the final line of a result stream.
	ResultTrailer = service.ResultTrailer
)

// Job lifecycle states.
const (
	JobQueued   = service.JobQueued
	JobRunning  = service.JobRunning
	JobDone     = service.JobDone
	JobFailed   = service.JobFailed
	JobCanceled = service.JobCanceled
)

// Service sentinel errors, mapped to HTTP statuses by the daemon.
var (
	// ErrJobNotFound: no job with that id (HTTP 404).
	ErrJobNotFound = service.ErrNotFound
	// ErrServiceDraining: admission stopped (HTTP 503).
	ErrServiceDraining = service.ErrDraining
	// ErrJobQueueFull: the bounded queue is at capacity (HTTP 429).
	ErrJobQueueFull = service.ErrQueueFull
	// ErrJobOverBudget: admission control rejected the job (HTTP 413).
	ErrJobOverBudget = service.ErrOverBudget
)

// NewService builds a Service: replays the checkpoint log, reopens it
// for appending, and starts the engine fleet.
func NewService(cfg ServiceConfig) (*Service, error) { return service.New(cfg) }

// ParseJob decodes a job document: a {"scenario": ...} / {"sweep": ...}
// envelope, a bare scenario (recognized by "algorithm"), or a bare sweep
// spec (recognized by "algos").
func ParseJob(data []byte) (Job, error) { return service.ParseJob(data) }

// Version reports this build's version string, derived from the binary's
// embedded module and VCS metadata. `doall version` prints it; the
// daemon serves it at GET /v1/version.
func Version() string { return buildinfo.Version() }
