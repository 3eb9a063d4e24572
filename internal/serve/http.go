package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/obs"
	"repro/internal/queue"
)

// Handler returns the service mux: the job API mounted on top of the
// standard -debug-addr observability endpoints (/metrics of the server's
// own registry, /debug/vars, /debug/pprof), so one listener serves both. In fleet mode the worker
// protocol endpoints (/fleet/*) are mounted too. Every route carries a
// method-mismatch fallback with a JSON 405 and Allow header, so clients
// never see a bare 404/405 page for using the wrong verb.
func (s *Server) Handler() http.Handler {
	mux := obs.Mux(s.cfg.Metrics)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("/jobs", methodNotAllowed(http.MethodPost))
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("/jobs/{id}", methodNotAllowed(http.MethodGet))
	mux.HandleFunc("GET /jobs/{id}/rendition", s.handleRendition)
	mux.HandleFunc("/jobs/{id}/rendition", methodNotAllowed(http.MethodGet))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	if ft, ok := s.transport.(*fleetTransport); ok {
		mux.HandleFunc("POST /fleet/heartbeat", ft.handleHeartbeat)
		mux.HandleFunc("/fleet/heartbeat", methodNotAllowed(http.MethodPost))
		mux.HandleFunc("POST /fleet/poll", ft.handlePoll)
		mux.HandleFunc("/fleet/poll", methodNotAllowed(http.MethodPost))
		mux.HandleFunc("POST /fleet/result", ft.handleResult)
		mux.HandleFunc("/fleet/result", methodNotAllowed(http.MethodPost))
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

// maxRequestBody caps every decoded POST body; job submissions and worker
// protocol messages are all far below this.
const maxRequestBody = 1 << 16

// maxResultBody is the larger cap for /fleet/result, whose reports may
// carry a part bitstream for the rendition stitch.
const maxResultBody = 1 << 20

// decodeJSON decodes one size-capped JSON body, writing the JSON error
// response itself on failure; the return reports whether decoding
// succeeded and the handler should proceed.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeJSONLimit(w, r, v, maxRequestBody)
}

func decodeJSONLimit(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), Reason: "too_large"})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// methodNotAllowed is the fallback handler mounted on the method-less
// pattern of every route: a JSON 405 naming the allowed verb.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeJSON(w, http.StatusMethodNotAllowed,
			errorBody{Error: fmt.Sprintf("method %s not allowed (want %s)", r.Method, allow), Reason: "method"})
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// Deliberately not r.Context(): a POSTed job is fire-and-forget; the
	// client disconnecting must not withdraw it.
	view, err := s.Submit(context.Background(), req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, view)
	case errors.Is(err, queue.ErrFull):
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error(), Reason: "full"})
	case errors.Is(err, queue.ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error(), Reason: "closed"})
	case errors.Is(err, ErrDeadlineInfeasible):
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error(), Reason: "deadline_infeasible"})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	view, err := s.Lookup(r.PathValue("id"))
	if err != nil {
		status, eb := lookupError(err)
		writeJSON(w, status, eb)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// lookupError is the answer to an id the server does not hold: 410 for a
// job forgotten past the retention window, 404 for an id it never issued.
func lookupError(err error) (int, errorBody) {
	if errors.Is(err, ErrGone) {
		return http.StatusGone, errorBody{Error: err.Error(), Reason: "gone"}
	}
	return http.StatusNotFound, errorBody{Error: err.Error(), Reason: "unknown"}
}

// healthBody is the GET /healthz response. PoolSize is the live transport
// size: configured servers for loopback, registered workers in fleet mode
// (where the per-worker detail rides in Workers).
type healthBody struct {
	Status      string       `json:"status"`
	Policy      Policy       `json:"policy"`
	PoolSize    int          `json:"pool_size"`
	FreeServers int          `json:"free_servers"`
	QueueDepth  int          `json:"queue_depth"`
	Pressure    float64      `json:"pressure"`
	Totals      Totals       `json:"totals"`
	Fleet       bool         `json:"fleet,omitempty"`
	Workers     []WorkerView `json:"workers,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	body := healthBody{
		Status: "ok", Policy: s.cfg.Policy, PoolSize: len(s.transport.specs()),
		FreeServers: len(s.transport.freeSlots()), QueueDepth: s.q.Depth(),
		Pressure: s.q.Pressure(), Totals: s.Totals(),
	}
	if ft, ok := s.transport.(*fleetTransport); ok {
		body.Fleet = true
		body.Workers = ft.workerViews()
	}
	writeJSON(w, http.StatusOK, body)
}
