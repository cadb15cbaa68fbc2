package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dsprof/internal/cli"
	"dsprof/internal/profd"
)

// TestUnknownMachineRejectedEverywhere checks that every surface taking
// a machine name rejects an unknown one with the same message, before
// any work is queued or run.
func TestUnknownMachineRejectedEverywhere(t *testing.T) {
	const want = `unknown machine "warp" (want study, scaled or default)`

	store, err := profd.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := profd.NewScheduler(store, profd.SchedulerConfig{Workers: 1})
	t.Cleanup(sched.Close)
	srv := httptest.NewServer(profd.NewServer(sched, store).Handler())
	t.Cleanup(srv.Close)
	post := func(path, body string) error {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct{ Error string }
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", path, resp.StatusCode)
		}
		return errors.New(e.Error)
	}

	for _, tc := range []struct {
		surface string
		reject  func() error
	}{
		{"POST /jobs", func() error {
			return post("/jobs", `{"program":"mcf","trips":10,"clock":true,"machine":"warp"}`)
		}},
		{"POST /advise", func() error {
			return post("/advise", `{"trips":10,"machine":"warp"}`)
		}},
		{"dsadvise loop", func() error {
			err := runLoop([]string{"-size", "10", "-machine", "warp"})
			if !errors.As(err, new(cli.UsageError)) {
				t.Errorf("dsadvise loop: %v is not a usage error", err)
			}
			return err
		}},
	} {
		err := tc.reject()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want it to contain %q", tc.surface, err, want)
		}
	}
}
