package dist

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/client"
)

// Handler returns the coordinator's worker-pull HTTP API (docs/API.md):
//
//	POST /v1/work/lease     lease one item, waiting up to maxLeaseWait (204 when none came)
//	POST /v1/work/complete  post a leased item's outcome
//	GET  /v1/work/stats     queue depth + scheduling counters
//
// The endpoints use the serve-layer JSON envelope ({"error": ...} on
// failure) and are meant to be mounted unauthenticated and un-rate-
// limited next to the job API (serve.Config.WorkHandler): workers are
// trusted infrastructure, and shedding them would stall every job on
// the coordinator.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/work/lease", c.handleLease)
	mux.HandleFunc("POST /v1/work/complete", c.handleComplete)
	mux.HandleFunc("GET /v1/work/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Stats())
	})
	return mux
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req client.WorkLeaseRequest
	if !readJSON(w, r, &req, "bad lease request: ") {
		return
	}
	l, ok := c.Lease(r.Context(), req.Worker, time.Now().Add(maxLeaseWait))
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, l)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var comp client.WorkCompletion
	if !readJSON(w, r, &comp, "bad completion: ") {
		return
	}
	writeJSON(w, http.StatusOK, c.Complete(comp))
}

// readJSON decodes r's body into v, reading at most
// client.MaxRequestBytes. On failure it answers 413 for an oversized
// body and 400 for anything else, with msg prefixed to the decode
// error, and returns false.
func readJSON(w http.ResponseWriter, r *http.Request, v any, msg string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, client.MaxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeHTTPError(w, code, msg+err.Error())
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeHTTPError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
