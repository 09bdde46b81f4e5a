package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

const (
	replicaCount = 2
	// probeInterval is well below the gateway's 1 s default, which would
	// otherwise quantize the time until the gateway reports ready should a
	// first probe fail, yet slow enough that probe traffic stays a small
	// share of the load.
	probeInterval = 50 * time.Millisecond
	// gatewayCacheBytes is the gateway's response-cache budget. rapidgw's
	// default, 32 MiB, holds about 25k of these workloads' responses, so
	// the cache kept filling through a whole run and the heap grew with
	// the number of requests sent so far; 2 MiB fills during warm-up, and
	// still holds every repeat the workloads send.
	gatewayCacheBytes = 2 << 20
)

// fleet is a gateway over replicaCount serve replicas, all in this
// process and all reached over loopback HTTP.
type fleet struct {
	reg      *telemetry.Registry
	tr       *tracer
	dir      string
	replicas []*serve.Server
	gw       *gateway.Gateway
	servers  []*http.Server // in start order: the replicas', then the gateway's
	done     sync.WaitGroup
	url      string

	// setupSpan parents the mount spans of set-up; -1 once the fleet is
	// live.
	setupSpan int

	mountMu sync.Mutex
	specs   [][]serve.DesignSpec // per replica: the mounted manifest
}

// startFleet constructs the replicas, mounts specs on each through
// ApplyManifest (with placement on and an empty artifact directory under
// dir), then builds the gateway, and returns once the gateway's /readyz
// answers 200. It reports how long that took.
func startFleet(ctx context.Context, dir string, specs []serve.DesignSpec, tr *tracer) (*fleet, time.Duration, error) {
	start := time.Now()
	f := &fleet{reg: telemetry.NewRegistry(), tr: tr, dir: dir, specs: make([][]serve.DesignSpec, replicaCount)}
	f.setupSpan = tr.start("setup", 0, -1, len(specs))
	defer func() {
		tr.end(f.setupSpan)
		f.setupSpan = -1
	}()
	f.replicas = make([]*serve.Server, replicaCount)
	errs := make([]error, replicaCount)
	var wg sync.WaitGroup
	for i := range f.replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f.mountReplica(i, specs)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		f.close()
		return nil, 0, err
	}
	// Like rapidserve, a replica listens only once its designs are mounted.
	urls := make([]string, replicaCount)
	for i, srv := range f.replicas {
		url, err := f.serve(tr.wrap("serve", srv.Handler()))
		if err != nil {
			f.close()
			return nil, 0, err
		}
		urls[i] = url
	}
	gw, err := gateway.New(gateway.Config{
		Replicas:      urls,
		CacheMaxBytes: gatewayCacheBytes,
		ProbeInterval: probeInterval,
		Telemetry:     f.reg,
	})
	if err != nil {
		f.close()
		return nil, 0, err
	}
	f.gw = gw
	if f.url, err = f.serve(tr.wrap("gateway", gw.Handler())); err != nil {
		f.close()
		return nil, 0, err
	}
	if err := waitReady(ctx, f.url+"/readyz"); err != nil {
		f.close()
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

// mountReplica builds replica i and mounts specs on it.
func (f *fleet) mountReplica(i int, specs []serve.DesignSpec) error {
	srv, err := serve.New(serve.Config{
		ArtifactDir: filepath.Join(f.dir, fmt.Sprintf("replica-%d", i)),
		Placement:   true,
		Telemetry:   f.reg,
	})
	if err != nil {
		return err
	}
	f.replicas[i] = srv
	return f.apply(i, specs)
}

// serve starts an HTTP server for h on a loopback port and returns its
// base URL; close stops it.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.servers = append(f.servers, hs)
	f.done.Add(1)
	go func() {
		defer f.done.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// apply replaces replica i's manifest with specs inside a mount span.
func (f *fleet) apply(i int, specs []serve.DesignSpec) error {
	added := len(specs) - len(f.specs[i])
	err := f.tr.timed("serve.apply_manifest", f.setupSpan, added, func() error {
		_, err := f.replicas[i].ApplyManifest(specs)
		return err
	})
	if err != nil {
		return fmt.Errorf("replica %d: %w", i, err)
	}
	f.specs[i] = specs
	return nil
}

// mount adds spec to replica i's manifest on the live fleet and returns
// how long ApplyManifest took.
func (f *fleet) mount(i int, spec serve.DesignSpec) (time.Duration, error) {
	f.mountMu.Lock()
	defer f.mountMu.Unlock()
	next := append(append([]serve.DesignSpec(nil), f.specs[i]...), spec)
	start := time.Now()
	err := f.apply(i, next)
	return time.Since(start), err
}

// unmount removes the design named name from replica i's manifest.
func (f *fleet) unmount(i int, name string) error {
	f.mountMu.Lock()
	defer f.mountMu.Unlock()
	next := slices.DeleteFunc(slices.Clone(f.specs[i]), func(s serve.DesignSpec) bool { return s.Name == name })
	if _, err := f.replicas[i].ApplyManifest(next); err != nil {
		return fmt.Errorf("replica %d: %w", i, err)
	}
	f.specs[i] = next
	return nil
}

// allReady reports whether the gateway has probed every replica ready.
func (f *fleet) allReady() bool {
	for _, r := range f.gw.Replicas() {
		if !r.Ready {
			return false
		}
	}
	return true
}

// close stops the listeners, the gateway and the replicas, waits for
// every serving goroutine, and removes the artifact directories.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for i := len(f.servers) - 1; i >= 0; i-- { // the gateway first
		errs = append(errs, f.servers[i].Shutdown(ctx))
	}
	f.done.Wait()
	if f.gw != nil {
		errs = append(errs, f.gw.Shutdown(ctx))
	}
	for _, srv := range f.replicas {
		if srv != nil {
			errs = append(errs, srv.Shutdown(ctx))
		}
	}
	errs = append(errs, os.RemoveAll(f.dir))
	return errors.Join(errs...)
}

// waitReady polls url until it answers 200.
func waitReady(ctx context.Context, url string) error {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	c := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never answered 200: %w", url, ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
}
