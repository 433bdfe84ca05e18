package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// routeRow pins one request's status code and Content-Type.
type routeRow struct {
	method, path, body string
	code               int
	ctype              string
}

const (
	ctJSON     = "application/json"
	ctExpvar   = "application/json; charset=utf-8"
	ctText     = "text/plain; charset=utf-8"
	ctHTML     = "text/html; charset=utf-8"
	ctProm     = "text/plain; version=0.0.4; charset=utf-8"
	ctBinary   = "application/octet-stream"
	taskBodyOK = `{"name":"cpu","threshold":100,"err":0.05,"monitors":[{"id":"m0","source":"%SRC%"},{"id":"m1","source":"%SRC%"}]}`
)

// observabilityRoutes are the routes every volleyd mode serves.
func observabilityRoutes() []routeRow {
	return []routeRow{
		{"GET", "/metrics", "", 200, ctProm},
		{"GET", "/healthz", "", 200, ctJSON},
		{"GET", "/debug/events", "", 200, ctJSON},
		{"GET", "/debug/vars", "", 200, ctExpvar},
		{"GET", "/debug/pprof/", "", 200, ctHTML},
		{"GET", "/debug/pprof/cmdline", "", 200, ctText},
		{"GET", "/debug/pprof/goroutine?debug=1", "", 200, ctText},
		{"GET", "/debug/pprof/heap", "", 200, ctBinary},
		{"GET", "/alerts", "", 200, ctJSON},
		{"POST", "/alerts/1/ack", "", 404, ctJSON},
		{"POST", "/alerts/1/resolve", "", 404, ctJSON},
		{"POST", "/alerts/x/ack", "", 400, ctJSON},
		{"GET", "/no-such-route", "", 404, ctText},
	}
}

// pprofHandlerRoutes are the pprof handlers registered beside the index.
func pprofHandlerRoutes() []routeRow {
	return []routeRow{
		{"GET", "/debug/pprof/profile?seconds=1", "", 200, ctBinary},
		{"GET", "/debug/pprof/symbol", "", 200, ctText},
		{"GET", "/debug/pprof/trace?seconds=0.05", "", 200, ctBinary},
	}
}

// TestRouteTable starts each volleyd mode and pins every route's status
// code and Content-Type, shared routes and mode-specific ones alike.
// Rows run in order, so the task rows build on each other.
func TestRouteTable(t *testing.T) {
	src := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("1"))
	}))
	defer src.Close()
	taskBody := strings.ReplaceAll(taskBodyOK, "%SRC%", src.URL)

	modes := []struct {
		name string
		opts options
		rows []routeRow
	}{
		{
			name: "single",
			opts: options{source: src.URL, threshold: 50, errAllow: 0.05},
			rows: concatRows(observabilityRoutes(), pprofHandlerRoutes(), []routeRow{
				{"GET", "/tasks", "", 404, ctText},
				{"POST", "/tasks", taskBody, 404, ctText},
				{"GET", "/cluster", "", 404, ctText},
			}),
		},
		{
			name: "shards",
			opts: options{shards: 2},
			rows: concatRows(observabilityRoutes(), pprofHandlerRoutes(), []routeRow{
				{"GET", "/tasks", "", 200, ctJSON},
				{"POST", "/tasks", "{", 400, ctJSON},
				{"POST", "/tasks", `{"name":"empty","threshold":1,"err":0.05}`, 400, ctJSON},
				{"POST", "/tasks", taskBody, 201, ctJSON},
				{"POST", "/tasks", taskBody, 409, ctJSON},
				{"PATCH", "/tasks/cpu", `{"threshold":200,"err":0.05}`, 204, ""},
				{"PATCH", "/tasks/cpu", `{"threshold":1,"selectivity":5,"err":0.05}`, 400, ctJSON},
				{"PATCH", "/tasks/nope", `{"selectivity":5,"err":0.05}`, 404, ctJSON},
				{"PATCH", "/tasks/cpu", "{", 400, ctJSON},
				{"DELETE", "/tasks/cpu", "", 204, ""},
				{"DELETE", "/tasks/cpu", "", 404, ctJSON},
				{"PUT", "/tasks", "", 405, ctText},
				{"POST", "/shards", `{"id":"shard-9"}`, 204, ""},
				{"POST", "/shards", `{"id":"shard-9"}`, 409, ctJSON},
				{"POST", "/shards", "{", 400, ctJSON},
				{"DELETE", "/shards/shard-9", "", 204, ""},
				{"DELETE", "/shards/nope?mode=crash", "", 409, ctJSON},
				{"GET", "/cluster", "", 404, ctText},
				{"PATCH", "/tasks/cpu/allowance", `{"assignments":{"cpu/mon/m0":0.01}}`, 404, ctText},
			}),
		},
		{
			name: "shard-id",
			opts: options{shardID: "a", peerListen: "127.0.0.1:0", beaconEvery: 2, suspectAfter: 8, deadAfter: 16, snapshotEvery: 5},
			rows: concatRows(observabilityRoutes(), pprofHandlerRoutes(), []routeRow{
				{"GET", "/tasks", "", 200, ctJSON},
				{"GET", "/cluster", "", 200, ctJSON},
				{"POST", "/tasks", "{", 400, ctJSON},
				{"POST", "/tasks", `{"name":"empty","threshold":1,"err":0.05}`, 400, ctJSON},
				{"POST", "/tasks", taskBody, 201, ctJSON},
				{"POST", "/tasks", taskBody, 409, ctJSON},
				{"PATCH", "/tasks/cpu/allowance", `{"assignments":{}}`, 400, ctJSON},
				{"PATCH", "/tasks/cpu/allowance", "{", 400, ctJSON},
				{"PATCH", "/tasks/nope/allowance", `{"assignments":{"nope/mon/m0":0.01}}`, 409, ctJSON},
				{"PATCH", "/tasks/cpu", `{"threshold":200,"err":0.05}`, 405, ctText},
				{"DELETE", "/tasks/cpu", "", 204, ""},
				{"DELETE", "/tasks/cpu", "", 404, ctJSON},
				{"POST", "/shards", `{"id":"b"}`, 404, ctText},
			}),
		},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			opts := m.opts
			opts.interval = 20 * time.Millisecond
			opts.maxInterval = 5
			opts.out = io.Discard
			addr, done := startDaemon(t, ctx, opts)
			for _, r := range m.rows {
				code, ctype := routeProbe(t, r.method, "http://"+addr+r.path, r.body)
				if code != r.code || ctype != r.ctype {
					t.Errorf("%s %s: got %d %q, want %d %q", r.method, r.path, code, ctype, r.code, r.ctype)
				}
			}
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("run: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("daemon did not shut down")
			}
		})
	}
}

func concatRows(parts ...[]routeRow) []routeRow {
	var out []routeRow
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// routeProbe issues one request and reports its status and Content-Type.
func routeProbe(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("Content-Type")
}

// TestRequestBodyBound POSTs bodies past maxRequestBody to every route
// that decodes one, in both cluster modes: each answers 413 instead of
// buffering the body. A body just under the bound still reaches
// validation.
func TestRequestBodyBound(t *testing.T) {
	padded := func(n int) string { return `{"name":"` + strings.Repeat("a", n) + `"}` }
	over, under := padded(2*maxRequestBody), padded(maxRequestBody-64)
	modes := []struct {
		name   string
		opts   options
		routes [][2]string // method, path
	}{
		{"shards", options{shards: 2}, [][2]string{
			{"POST", "/tasks"}, {"PATCH", "/tasks/cpu"}, {"POST", "/shards"},
		}},
		{"shard-id", options{shardID: "a", peerListen: "127.0.0.1:0", beaconEvery: 2, suspectAfter: 8, deadAfter: 16, snapshotEvery: 5},
			[][2]string{{"POST", "/tasks"}, {"PATCH", "/tasks/cpu/allowance"}}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := m.opts
			opts.interval = 20 * time.Millisecond
			opts.maxInterval = 5
			opts.out = io.Discard
			addr, done := startDaemon(t, ctx, opts)
			for _, r := range m.routes {
				if code, ctype := routeProbe(t, r[0], "http://"+addr+r[1], over); code != http.StatusRequestEntityTooLarge || ctype != ctJSON {
					t.Errorf("%s %s oversized: got %d %q, want 413 %q", r[0], r[1], code, ctype, ctJSON)
				}
			}
			if code, _ := routeProbe(t, "POST", "http://"+addr+"/tasks", under); code != http.StatusBadRequest {
				t.Errorf("POST /tasks just under the bound: got %d, want 400 (no monitors)", code)
			}
			cancel()
			if err := <-done; err != nil {
				t.Fatalf("run: %v", err)
			}
		})
	}
}
