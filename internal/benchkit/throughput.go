// Network hot-path experiments: closed-loop ops/sec and tail latency of the
// mixed workload (90% reads) against an in-process server on loopback, once
// per client mode. "mux" drives miniredis through per-request connections
// (the naive baseline), the bounded pool, and the multiplexed shared-socket
// path; "http" drives cloudsim through a fresh connection per request, the
// tuned keep-alive pool, and the tuned pool with GET coalescing. The
// machine-independent gates are the mux/perconn and coalesced/perop ratios.
package benchkit

import (
	"context"
	"fmt"
	"io"

	"edsc/internal/cloudsim"
	"edsc/internal/miniredis"
	"edsc/kv"
	"edsc/workload"
)

// clientMode is one client configuration of a network experiment.
type clientMode struct {
	name    string
	ops     int
	guarded bool
	open    func() (kv.Store, io.Closer)
}

// runModes drives the closed-loop mixed workload through each mode.
func runModes(rep *Report, goroutines, keys int, modes []clientMode) error {
	for _, m := range modes {
		st, closer := m.open()
		mr, err := workload.RunMixed(context.Background(), st, workload.MixedConfig{
			Clients:      goroutines,
			Ops:          m.ops,
			ReadFraction: 0.9,
			Keys:         keys,
			Size:         rep.Params["value_bytes"],
			Seed:         42,
			KeyPrefix:    "t/",
		})
		closer.Close()
		if err != nil {
			return fmt.Errorf("benchkit: mode %s: %w", m.name, err)
		}
		rep.Cells = append(rep.Cells, mixedCell(m.name, m.guarded, mr))
	}
	return nil
}

func runMux(smoke bool) (*Report, error) {
	goroutines, ops, perConnOps, keys, conns := 1000, 200_000, 20_000, 256, 8
	if smoke {
		goroutines, ops, perConnOps, keys, conns = 16, 400, 100, 16, 2
	}
	srv := miniredis.NewServer(miniredis.ServerConfig{})
	if err := srv.Start(); err != nil {
		return nil, fmt.Errorf("benchkit: start server: %w", err)
	}
	defer srv.Close()
	mode := func(name string, ops int, guarded bool, opts miniredis.Options) clientMode {
		return clientMode{name, ops, guarded, func() (kv.Store, io.Closer) {
			c := miniredis.NewClientWith(srv.Addr(), opts)
			return miniredis.NewStore(name, c, name+":"), c
		}}
	}
	rep := &Report{Experiment: "mux", Params: map[string]int{
		"goroutines": goroutines, "value_bytes": 128, "mux_conns": conns,
	}}
	err := runModes(rep, goroutines, keys, []clientMode{
		// The naive baseline: no reuse, a dial + socket per request. Needs
		// headroom above the goroutine count so dials never queue.
		mode("perconn", perConnOps, false, miniredis.Options{MaxIdle: -1, MaxConns: goroutines + 16}),
		// The bounded pool with idle reuse (the default client).
		mode("pooled", ops, true, miniredis.Options{MaxConns: 128, MaxIdle: 128}),
		// The multiplexed hot path: all goroutines share conns sockets.
		mode("mux", ops, true, miniredis.Options{Mux: true, MuxConns: conns}),
	})
	if err != nil {
		return nil, err
	}
	rep.Ratios = map[string]float64{"mux_speedup": opsRatio(rep, "mux", "perconn")}
	return rep, nil
}

func runHTTP(smoke bool) (*Report, error) {
	goroutines, ops, perOpOps, keys := 256, 60_000, 10_000, 256
	if smoke {
		goroutines, ops, perOpOps, keys = 16, 400, 100, 16
	}
	srv := cloudsim.NewServer(cloudsim.LocalProfile("bench"))
	if err := srv.Start(); err != nil {
		return nil, fmt.Errorf("benchkit: start cloudsim server: %w", err)
	}
	defer srv.Close()
	mode := func(name string, ops int, guarded bool, opts cloudsim.Options) clientMode {
		return clientMode{name, ops, guarded, func() (kv.Store, io.Closer) {
			c := cloudsim.NewClientWith(name, srv.Addr(), "bench-"+name, opts)
			return c, c
		}}
	}
	rep := &Report{Experiment: "http", Params: map[string]int{"goroutines": goroutines, "value_bytes": 128}}
	err := runModes(rep, goroutines, keys, []clientMode{
		// The naive baseline: no keep-alive, a dial + socket per request.
		mode("perop", perOpOps, false, cloudsim.Options{DisableKeepAlives: true}),
		// The tuned transport: phase timeouts plus a pool sized so every
		// caller can hold a warm connection.
		mode("tuned", ops, true, cloudsim.Options{MaxIdleConnsPerHost: goroutines}),
		// Tuned pool plus GET coalescing: concurrent reads merge into
		// ?batch=get round trips.
		mode("coalesced", ops, true, cloudsim.Options{MaxIdleConnsPerHost: goroutines, Coalesce: true}),
	})
	if err != nil {
		return nil, err
	}
	rep.Ratios = map[string]float64{"coalesce_speedup": opsRatio(rep, "coalesced", "perop")}
	return rep, nil
}

func writeMuxDat(w io.Writer, r *Report) error {
	return writeRows(w, fmt.Sprintf("# extension: network hot-path throughput, mixed workload (90%% reads, %d goroutines, %d B values), loopback miniredis",
		r.Params["goroutines"], r.Params["value_bytes"]), r, "mode", "ops_per_sec", "read_p99_ms", "write_p99_ms")
}

func writeHTTPDat(w io.Writer, r *Report) error {
	return writeRows(w, fmt.Sprintf("# extension: cloudsim HTTP hot-path throughput, mixed workload (90%% reads, %d goroutines, %d B values), loopback cloudsim",
		r.Params["goroutines"], r.Params["value_bytes"]), r, "mode", "ops_per_sec", "read_p99_ms", "write_p99_ms")
}
