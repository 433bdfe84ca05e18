// Alert plumbing shared by all three volleyd modes: the JSONL file sinks
// (-events-file decision trace, -alert-history lifecycle history) that are
// flushed and closed on graceful shutdown, and the operator HTTP surface
// (GET /alerts, POST /alerts/{id}/ack, POST /alerts/{id}/resolve).
package main

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"volley"
)

// fileSink is an append-only buffered JSONL file. Writes go through the
// buffer; Close flushes the tail and closes the file, so the last lines of
// a run survive SIGTERM. A nil *fileSink writes nowhere and closes clean.
type fileSink struct {
	f *os.File
	w *bufio.Writer
}

// openFileSink opens (creating, appending) path. An empty path returns a
// nil sink, which every method tolerates.
func openFileSink(path string) (*fileSink, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &fileSink{f: f, w: bufio.NewWriter(f)}, nil
}

func (s *fileSink) Write(p []byte) (int, error) {
	if s == nil {
		return len(p), nil
	}
	return s.w.Write(p)
}

// Close flushes buffered lines and closes the file.
func (s *fileSink) Close() error {
	if s == nil {
		return nil
	}
	return errors.Join(s.w.Flush(), s.f.Close())
}

// closeSinks closes every sink, joining errors (for shutdown paths).
func closeSinks(sinks ...*fileSink) error {
	var err error
	for _, s := range sinks {
		err = errors.Join(err, s.Close())
	}
	return err
}

// registerAlertRoutes wires the operator alert API onto mux. now supplies
// the mode's clock (wall-based in single mode, virtual in the cluster
// modes) so ack/resolve transitions carry timestamps in the same time base
// as raises.
func registerAlertRoutes(mux *http.ServeMux, reg *volley.AlertRegistry, now func() time.Duration) {
	mux.HandleFunc("GET /alerts", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, reg.List())
	})
	op := func(do func(id uint64, at time.Duration, actor string) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad alert id: %w", err))
				return
			}
			if err := do(id, now(), r.URL.Query().Get("actor")); err != nil {
				switch {
				case errors.Is(err, volley.ErrAlertNotFound):
					httpError(w, http.StatusNotFound, err)
				case errors.Is(err, volley.ErrAlertBadState):
					httpError(w, http.StatusConflict, err)
				default:
					httpError(w, http.StatusInternalServerError, err)
				}
				return
			}
			a, ok := reg.Get(id)
			if !ok {
				httpError(w, http.StatusNotFound, volley.ErrAlertNotFound)
				return
			}
			writeJSON(w, http.StatusOK, a)
		}
	}
	mux.HandleFunc("POST /alerts/{id}/ack", op(func(id uint64, at time.Duration, actor string) error {
		if actor == "" {
			actor = "operator"
		}
		return reg.Ack(id, at, actor)
	}))
	mux.HandleFunc("POST /alerts/{id}/resolve", op(reg.Resolve))
}
