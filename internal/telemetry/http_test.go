package telemetry

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestMetricsServerLifecycle: the listener binds an ephemeral port, serves
// the exposition, and Shutdown actually releases it — the fix for the
// never-shut-down metrics goroutine the CLIs used to leak.
func TestMetricsServerLifecycle(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rapid_test_http_total", "test counter").Add(7)
	ms, err := ListenAndServe("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	addr := ms.Addr()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "rapid_test_http_total 7") {
		t.Fatalf("exposition missing counter:\n%s", body)
	}
	resp, err = http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ms.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

func TestMetricsServerBadAddr(t *testing.T) {
	if _, err := ListenAndServe("127.0.0.1:-1", NewRegistry()); err == nil {
		t.Fatal("want listen error")
	}
}

// TestMetricsServerBoundsConnections: the metrics listener bounds slow
// request headers and idle keep-alive connections.
func TestMetricsServerBoundsConnections(t *testing.T) {
	ms, err := ListenAndServe("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Shutdown(context.Background())
	if ms.srv.ReadHeaderTimeout != readHeaderTimeout || ms.srv.IdleTimeout != idleTimeout {
		t.Fatalf("ReadHeaderTimeout=%v IdleTimeout=%v, want %v and %v", ms.srv.ReadHeaderTimeout, ms.srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
}
