package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzParseNumber ensures arbitrary source output never panics the parser.
func FuzzParseNumber(f *testing.F) {
	f.Add("42")
	f.Add("")
	f.Add("  3.5 trailing")
	f.Add("NaN")
	f.Add("1e999")
	f.Fuzz(func(t *testing.T, s string) {
		v, err := parseNumber(s)
		if err == nil && v != v && s == "" {
			t.Fatalf("empty input produced value %v without error", v)
		}
	})
}

// FuzzTaskRequest feeds arbitrary POST /tasks bodies through the shared
// decode and validate path. It must never panic, a rejected body must
// answer 400 or 413, and every accepted request must carry non-empty,
// unique monitor IDs addressed as <name>/mon/<id>, one agent each.
func FuzzTaskRequest(f *testing.F) {
	for _, body := range []string{
		`{"name":"cpu","threshold":50,"err":0.05,"monitors":[{"id":"m0","source":"http://127.0.0.1:1/load"},{"id":"m1","source":"http://127.0.0.1:1/load"}]}`,
		`{"name":"bad","threshold":1,"err":0.05,"monitors":[{"id":"m","source":"ftp://x"}]}`,
		`{"name":"hot","threshold":100,"err":0.05,"monitors":[{"id":"m1","source":"cmd:echo 80"},{"id":"m2","source":"cmd:echo 90"}]}`,
		`{"name":"soak","threshold":100,"err":0.05,"monitors":[{"id":"m1","source":"cmd:echo 1"},{"id":"m2","source":"cmd:echo 2"}]}`,
		`{"name":"empty","threshold":1,"err":0.05}`,
		`{"name":"dup","threshold":1,"err":0.05,"direction":"below","monitors":[{"id":"m","source":"cmd:echo 1"},{"id":"m","source":"cmd:echo 1"}]}`,
		`{"name":"g","threshold":1,"err":0.05,"maxInterval":4,"monitors":[{"id":"m","source":"cmd:echo 1"}],"gate":{"predictor":"agg-00","relaxedInterval":40,"holdDown":10}}`,
		`{`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		w := httptest.NewRecorder()
		var req clusterTaskRequest
		if !decodeJSON(w, httptest.NewRequest("POST", "/tasks", strings.NewReader(body)), &req) {
			if w.Code != http.StatusBadRequest && w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("rejected body answered %d", w.Code)
			}
			return
		}
		// A workload: source generates and caches a whole family sized by
		// its query, so arbitrary ones would exhaust memory; their parsing
		// is covered by TestBuildWorkloadAgentValidation.
		for _, m := range req.Monitors {
			if strings.HasPrefix(m.Source, "workload:") {
				t.Skip("workload: source")
			}
		}
		a, err := validateTask(req, 20)
		if err != nil {
			return
		}
		if len(req.Monitors) == 0 || len(a.spec.Monitors) != len(req.Monitors) || len(a.agents) != len(req.Monitors) {
			t.Fatalf("accepted %d monitors as %d addresses, %d agents", len(req.Monitors), len(a.spec.Monitors), len(a.agents))
		}
		seen := make(map[string]bool)
		for i, m := range req.Monitors {
			if m.ID == "" || seen[m.ID] {
				t.Fatalf("accepted empty or duplicate monitor ID %q", m.ID)
			}
			seen[m.ID] = true
			if want := req.Name + "/mon/" + m.ID; a.spec.Monitors[i] != want {
				t.Fatalf("monitor %d addressed %q, want %q", i, a.spec.Monitors[i], want)
			}
			if a.agents[i] == nil {
				t.Fatalf("monitor %d has no agent", i)
			}
		}
		if a.maxInterval == 0 {
			t.Fatal("accepted request left maxInterval unresolved")
		}
	})
}
