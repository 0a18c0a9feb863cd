package catalog

import (
	"encoding/json"
	"net/http"
	"strings"
)

// Handler exposes the catalog read-only over HTTP, mounted at /catalog
// and /catalog/ on brokerd's one listener:
//
//	GET /catalog         every app's side-by-side comparison
//	GET /catalog/{app}   one app's comparison (404 when unobserved)
//
// Rows are sorted best observed price-performance first; the JSON is
// the side-by-side export ([]AppReport / AppReport).
type Handler struct {
	Service *Service
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	path := strings.TrimSuffix(r.URL.Path, "/")
	switch {
	case path == "/catalog":
		writeJSON(w, h.Service.Report())
	default:
		app, ok := strings.CutPrefix(path, "/catalog/")
		if !ok || app == "" || strings.Contains(app, "/") {
			http.NotFound(w, r)
			return
		}
		rep, ok := h.Service.ReportFor(app)
		if !ok {
			http.Error(w, "catalog: no observations for app "+app, http.StatusNotFound)
			return
		}
		writeJSON(w, rep)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
