package serve

import (
	"fmt"
	"net/http"
	"sort"

	"repro/internal/codec"
)

// handleRendition serves the stitched bitstream of a completed multi-part
// job: GET /jobs/{id}/rendition[?rung=name]. Parts keep their encoded
// streams at settlement; once the parent is done the requested rung's
// parts are stitched in segment order (codec.StitchStreams) — the
// server-side counterpart of the byte-identical segment fan-out.
func (s *Server) handleRendition(w http.ResponseWriter, r *http.Request) {
	stream, status, eb := s.rendition(r.PathValue("id"), r.URL.Query().Get("rung"))
	if status != http.StatusOK {
		writeJSON(w, status, eb)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(stream)
}

func (s *Server) rendition(id, rung string) ([]byte, int, errorBody) {
	rec, err := s.record(id)
	if err != nil {
		status, eb := lookupError(err)
		return nil, status, eb
	}
	rec.mu.Lock()
	state := rec.state
	rec.mu.Unlock()
	if len(rec.parts) == 0 {
		return nil, http.StatusNotFound, errorBody{
			Error: "job has no stitchable parts (plain jobs carry no rendition)", Reason: "no_rendition"}
	}
	if state != StateDone {
		return nil, http.StatusConflict, errorBody{
			Error: fmt.Sprintf("job is %s, rendition needs done", state), Reason: "not_ready"}
	}
	var sel []*record
	rungs := make(map[string]bool)
	for _, p := range rec.parts {
		rungs[p.rung] = true
		if p.rung == rung {
			sel = append(sel, p)
		}
	}
	if len(sel) == 0 {
		names := make([]string, 0, len(rungs))
		for n := range rungs {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, http.StatusNotFound, errorBody{
			Error: fmt.Sprintf("unknown rung %q (have %q)", rung, names), Reason: "unknown_rung"}
	}
	sort.Slice(sel, func(i, j int) bool { return sel[i].seg.Start < sel[j].seg.Start })
	streams := make([][]byte, len(sel))
	for i, p := range sel {
		p.mu.Lock()
		st := p.stream
		p.mu.Unlock()
		if len(st) == 0 {
			return nil, http.StatusInternalServerError, errorBody{
				Error: fmt.Sprintf("part %s settled without its bitstream", p.id), Reason: "stream_unavailable"}
		}
		streams[i] = st
	}
	out, err := codec.StitchStreams(streams)
	if err != nil {
		return nil, http.StatusInternalServerError, errorBody{
			Error: "stitch: " + err.Error(), Reason: "stitch_failed"}
	}
	return out, http.StatusOK, errorBody{}
}
