package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"morphcache/internal/obs"
)

// obsSetup arms the single-run observability endpoints (-admin / -trace;
// DESIGN.md §10): it builds a one-shard hub and serves the admin endpoint.
// It returns the batch's Observe hook, which mints the run's observer
// under the spec's label, and a teardown that writes the trace file and
// drains the server. With neither flag set the hook is nil (the run is
// unobserved) and the teardown does nothing.
func obsSetup(ctx context.Context, stderr io.Writer, adminAddr, traceFile string) (observe func(int, string) *obs.Observer, teardown func() error, err error) {
	if adminAddr == "" && traceFile == "" {
		return nil, func() error { return nil }, nil
	}
	hub := obs.NewHub(obs.HubOptions{Shards: 1, Trace: traceFile != ""})
	var srv *obs.Server
	if adminAddr != "" {
		admin := obs.NewAdmin(hub.Registry, hub.Jobs)
		if srv, err = obs.Serve(adminAddr, admin); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(stderr, "morphsim: admin endpoint on http://%s (/metrics, /jobs, /healthz, /debug/pprof)\n", srv.Addr())
		// An interrupt flips /healthz to draining right away, before the
		// run notices the cancellation.
		go func() {
			<-ctx.Done()
			admin.SetHealthy(false)
		}()
	}
	observe = func(_ int, label string) *obs.Observer { return hub.Observer(label) }
	teardown = func() error {
		if srv != nil {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				fmt.Fprintln(stderr, "morphsim: admin shutdown:", err)
			}
		}
		if traceFile == "" {
			return nil
		}
		return writeSpanTrace(stderr, hub, traceFile)
	}
	return observe, teardown, nil
}

// writeSpanTrace dumps the collected phase spans as a Chrome trace-event
// document (load it in chrome://tracing or ui.perfetto.dev).
func writeSpanTrace(stderr io.Writer, hub *obs.Hub, path string) error {
	f, err := os.Create(path)
	if err == nil {
		err = hub.Tracer.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintln(stderr, "morphsim: trace written to", path)
	return nil
}
