package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"doall/internal/twin"
)

// Client is the thin HTTP client half of the service plane — what
// doall ctl is built from. It holds no state beyond the base URL:
// all job state lives in the daemon.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:7117".
	Base string
	// HTTP overrides the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.Base, "/") + path
}

// apiError decodes the server's {"error": "..."} body into a Go error.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		if resp.StatusCode == http.StatusNotFound {
			return fmt.Errorf("%w: %s", ErrNotFound, e.Error)
		}
		return fmt.Errorf("doalld: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("doalld: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// SubmitDoc submits a raw job document (any form ParseJob accepts) and
// returns the assigned status.
func (c *Client) SubmitDoc(ctx context.Context, doc []byte) (JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/v1/jobs"), bytes.NewReader(doc))
	if err != nil {
		return JobStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return JobStatus{}, apiError(resp)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// Submit marshals and submits a typed Job.
func (c *Client) Submit(ctx context.Context, job Job) (JobStatus, error) {
	doc, err := json.Marshal(job)
	if err != nil {
		return JobStatus{}, err
	}
	return c.SubmitDoc(ctx, doc)
}

// Status fetches one job's progress.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.getJSON(ctx, "/v1/jobs/"+id, &st)
	return st, err
}

// List fetches every job the daemon knows, in submission order.
func (c *Client) List(ctx context.Context) ([]JobStatus, error) {
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	err := c.getJSON(ctx, "/v1/jobs", &out)
	return out.Jobs, err
}

// Cancel asks the daemon to cancel a job and returns its status after.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.url("/v1/jobs/"+id), nil)
	if err != nil {
		return JobStatus{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobStatus{}, apiError(resp)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// Drain stops the daemon's admission; running jobs continue. Returns the
// number of jobs still open.
func (c *Client) Drain(ctx context.Context) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/v1/drain"), nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, apiError(resp)
	}
	var out struct {
		ActiveJobs int `json:"active_jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out.ActiveJobs, err
}

// Predict asks the daemon for one twin prediction. The result's Mode
// says whether it came from the analytical twin or a fallback
// simulation.
func (c *Client) Predict(ctx context.Context, q twin.Query) (PredictResult, error) {
	doc, err := json.Marshal(q)
	if err != nil {
		return PredictResult{}, err
	}
	var res PredictResult
	err = c.postJSON(ctx, "/v1/predict", doc, &res)
	return res, err
}

// PredictBatch answers several queries in one round trip.
func (c *Client) PredictBatch(ctx context.Context, qs []twin.Query) ([]PredictResult, error) {
	doc, err := json.Marshal(map[string]any{"queries": qs})
	if err != nil {
		return nil, err
	}
	var out struct {
		Results []PredictResult `json:"results"`
	}
	err = c.postJSON(ctx, "/v1/predict", doc, &out)
	return out.Results, err
}

func (c *Client) postJSON(ctx context.Context, path string, doc []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(path), bytes.NewReader(doc))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Version fetches the daemon's build version string.
func (c *Client) Version(ctx context.Context) (string, error) {
	var out struct {
		Version string `json:"version"`
	}
	err := c.getJSON(ctx, "/v1/version", &out)
	return out.Version, err
}

// Health probes /healthz.
func (c *Client) Health(ctx context.Context) (ok, draining bool, err error) {
	var out struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	err = c.getJSON(ctx, "/healthz", &out)
	return out.OK, out.Draining, err
}

// Results follows a job's live NDJSON cell stream, invoking fn for every
// completed cell in completion order, and returns the stream's trailer.
// A nil fn just drains. If the stream ends without a trailer (daemon
// died mid-stream), an Interrupted trailer is synthesized.
func (c *Client) Results(ctx context.Context, id string, fn func(ResultCell) error) (ResultTrailer, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/jobs/"+id+"/results"), nil)
	if err != nil {
		return ResultTrailer{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return ResultTrailer{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ResultTrailer{}, apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		// Cell lines carry "cell"; the single trailer line carries "done".
		var line struct {
			I    *int            `json:"i"`
			Cell json.RawMessage `json:"cell"`
			ResultTrailer
			DonePresent *bool `json:"done"`
		}
		if err := json.Unmarshal(raw, &line); err != nil {
			return ResultTrailer{}, fmt.Errorf("doalld: bad stream line: %w", err)
		}
		if line.DonePresent != nil {
			tr := line.ResultTrailer
			tr.Done = *line.DonePresent
			return tr, sc.Err()
		}
		if line.Cell != nil && line.I != nil && fn != nil {
			var rc ResultCell
			if err := json.Unmarshal(raw, &rc); err != nil {
				return ResultTrailer{}, fmt.Errorf("doalld: bad cell line: %w", err)
			}
			if err := fn(rc); err != nil {
				return ResultTrailer{}, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return ResultTrailer{}, err
	}
	return ResultTrailer{Interrupted: true}, nil
}

// WaitDone polls until the job reaches a terminal state, the context
// expires, or the daemon stops answering.
func (c *Client) WaitDone(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}
