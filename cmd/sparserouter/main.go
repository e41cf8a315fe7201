// Command sparserouter fronts a fleet of sparsestore shard processes
// with one wire-protocol endpoint. Tile coordinates are consistent-
// hashed across the shards: writes partition per owning shard, region
// reads scatter to the shards owning overlapping tiles and gather in
// linear-address order (byte-identical to a single-process tiled
// store), and the additive push-down kernels sum per-shard partials.
// The router's /metrics endpoint absorbs every shard's counters on
// each scrape, so one scrape sees the whole fleet.
//
// Usage:
//
//	sparsestore serve -dir /data/shard0 -create CSF -shape 4096,4096 -tile 512,512 -data-addr :7101 &
//	sparsestore serve -dir /data/shard1 -create CSF -shape 4096,4096 -tile 512,512 -data-addr :7102 &
//	sparsestore serve -dir /data/shard2 -create CSF -shape 4096,4096 -tile 512,512 -data-addr :7103 &
//	sparserouter -shards 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 \
//	    -data-addr :7100 -metrics-addr :7190
//	sparsestore rpc -addr 127.0.0.1:7100
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	_ "sparseart/internal/core/all"
	"sparseart/internal/obs"
	obsserve "sparseart/internal/obs/serve"
	"sparseart/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sparserouter:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sparserouter", flag.ExitOnError)
	shards := fs.String("shards", "", "comma-separated shard data addresses (required)")
	dataAddr := fs.String("data-addr", "127.0.0.1:0", "wire-protocol listen address")
	dataAddrFile := fs.String("data-addr-file", "", "write the bound data address to this file once listening")
	metricsAddr := fs.String("metrics-addr", "", "HTTP telemetry listen address (empty: no telemetry endpoint)")
	metricsAddrFile := fs.String("metrics-addr-file", "", "write the bound telemetry address to this file once listening")
	maxInflight := fs.Int("max-inflight", 0, "bound on concurrently executing requests (0: default)")
	scrapeTimeout := fs.Duration("scrape-timeout", 5*time.Second, "deadline for pulling shard telemetry on each scrape")
	slowlog := fs.String("slowlog", "", "slow-query threshold in ms — routed queries at least this slow land in /debug/slowlog (0 logs every query; empty: off)")
	traceSample := fs.Float64("trace-sample", 0, "probability that a request without a caller trace starts a sampled trace (0: off)")
	fs.Parse(args)
	if *shards == "" {
		return fmt.Errorf("-shards is required")
	}
	addrs := strings.Split(*shards, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}

	reg := obs.Enable()
	reg.SetProc("router")
	if *slowlog != "" {
		ms, err := strconv.ParseInt(*slowlog, 10, 64)
		if err != nil || ms < 0 {
			return fmt.Errorf("-slowlog: want a millisecond count >= 0, got %q", *slowlog)
		}
		reg.SlowLog().SetThreshold(time.Duration(ms) * time.Millisecond)
	}
	router, err := serve.NewRouter(addrs, reg)
	if err != nil {
		return err
	}
	defer router.Close()
	fmt.Fprintf(os.Stderr, "routing %d shards: %s\n", len(addrs), strings.Join(addrs, ", "))

	dataLn, err := net.Listen("tcp", *dataAddr)
	if err != nil {
		return err
	}
	if err := writeAddrFile(*dataAddrFile, dataLn.Addr().String()); err != nil {
		return err
	}
	srv := serve.NewServer(router, serve.Config{MaxInFlight: *maxInflight, Obs: reg, TraceSample: *traceSample})
	fmt.Fprintf(os.Stderr, "serving data on %s\n", dataLn.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(dataLn) }()
	defer srv.Close()

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		if err := writeAddrFile(*metricsAddrFile, ln.Addr().String()); err != nil {
			return err
		}
		osrv := obsserve.New(reg)
		// Every scrape pulls the shards' counters first, so /metrics
		// answers for the whole fleet, delta-absorbed monotonically.
		osrv.OnScrape = func() {
			ctx, cancel := context.WithTimeout(context.Background(), *scrapeTimeout)
			defer cancel()
			if err := router.RefreshObs(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "sparserouter: shard scrape:", err)
			}
		}
		metricsSrv = &http.Server{Handler: osrv.Handler()}
		fmt.Fprintf(os.Stderr, "serving telemetry on http://%s/metrics\n", ln.Addr())
		go metricsSrv.Serve(ln)
		defer metricsSrv.Close()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "sparserouter: %v, shutting down\n", s)
		return nil
	case err := <-errc:
		return err
	}
}

// writeAddrFile records a bound address for scripts using ":0" ports.
func writeAddrFile(path, addr string) error {
	if path == "" {
		return nil
	}
	return os.WriteFile(path, []byte(addr+"\n"), 0o644)
}
