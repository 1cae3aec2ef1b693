package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/cmd/swapmon/monclient"
	"repro/internal/obs/series"
	"repro/internal/swaprt"
)

// TestRunRendersAFrame: run draws the report the endpoint serves, and a
// cancelled ctx ends it after that first frame.
func TestRunRendersAFrame(t *testing.T) {
	body, err := json.Marshal(swaprt.TelemetryReport{
		Now: 3.5, Epoch: 1, ActiveSet: []int{1, 2},
		Ranks: []swaprt.RankTelemetry{{Rank: 1, Now: 3.5, Iters: 12, Rate: 640,
			IterTime: series.Quantiles{N: 12, Mean: 0.02, P50: 0.02, P90: 0.03, P99: 0.03, Max: 0.04}}},
		Decisions: swaprt.DecisionTelemetry{Count: 4, SwapVerdicts: 1, Swaps: 1, LastVerdict: "swap"},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	}))
	defer srv.Close()

	var served swaprt.TelemetryReport
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	want.WriteString("\033[2J\033[H")
	monclient.Render(&want, served)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	if err := run(ctx, []string{"-addr", srv.URL + "/telemetry"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	if stdout.String() != want.String() {
		t.Errorf("frame:\n%s\nwant:\n%s", stdout.String(), want.String())
	}
}

// A poll interval that is not positive would spin.
func TestRunRejectsBadInterval(t *testing.T) {
	for _, iv := range []string{"0s", "-1s"} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{"-interval", iv}, &stdout, &stderr)
		if err == nil || !strings.HasPrefix(err.Error(), "-interval ") {
			t.Errorf("run(-interval %s) = %v, want an error naming -interval", iv, err)
		}
	}
}
