package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// publishOnce guards the expvar registration: expvar.Publish panics on a
// duplicate name, and tests may start more than one server per process.
var publishOnce sync.Once

// Publish exports the default registry as the expvar variable "obs", so
// the standard /debug/vars page includes the full metrics snapshot.
func Publish() {
	publishOnce.Do(func() {
		expvar.Publish("obs", expvar.Func(func() any {
			return Default().Snapshot()
		}))
	})
}

// Mux returns a fresh mux carrying the standard debug endpoints every
// binary's -debug-addr serves:
//
//	/metrics     — reg's snapshot as indented JSON
//	/debug/vars  — expvar, including the "obs" snapshot
//	/debug/pprof — the standard pprof profile index
//
// The serving layer mounts its API routes on top of this mux so one
// listener carries both the service and its observability side door.
func Mux(reg *Registry) *http.ServeMux {
	Publish()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(reg.Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the debug HTTP endpoint on addr and returns the bound
// listener address (useful when addr ends in ":0"). It serves Mux(reg) until
// the process exits; Serve fails fast (rather than in the background) when
// the address cannot be bound.
func Serve(addr string, reg *Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: debug endpoint: %w", err)
	}
	go http.Serve(ln, Mux(reg))
	return ln.Addr().String(), nil
}
